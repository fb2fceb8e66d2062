package core

import (
	"math"
	"testing"
)

// FuzzTreeOps drives one ALEX variant with an op stream decoded from raw
// bytes and cross-checks against a map plus full invariant verification.
// `go test` exercises the seed corpus; `go test -fuzz=FuzzTreeOps` explores.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(0))
	f.Add([]byte{255, 254, 253, 1, 1, 1, 9, 9}, uint8(1))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(2))
	f.Add([]byte{0, 0, 0, 0, 128, 128, 64, 32, 16, 8, 4, 2, 1}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, variant uint8) {
		cfgs := []Config{
			{RMI: StaticRMI},
			{RMI: AdaptiveRMI, SplitOnInsert: true},
		}
		cfg := cfgs[int(variant)%len(cfgs)]
		cfg.MaxKeysPerLeaf = 32
		cfg.SplitFanout = 2
		tr := New(cfg)
		ref := make(map[float64]uint64)
		for i := 0; i+1 < len(data); i += 2 {
			op := data[i] % 4
			k := float64(data[i+1])
			switch op {
			case 0:
				ins := tr.Insert(k, uint64(i))
				if _, existed := ref[k]; existed == ins {
					t.Fatalf("insert(%v) returned %v with existed=%v", k, ins, existed)
				}
				ref[k] = uint64(i)
			case 1:
				_, existed := ref[k]
				if tr.Delete(k) != existed {
					t.Fatalf("delete(%v) disagreed with reference", k)
				}
				delete(ref, k)
			case 2:
				v, ok := tr.Get(k)
				want, existed := ref[k]
				if ok != existed || (ok && v != want) {
					t.Fatalf("get(%v) = (%v,%v), want (%v,%v)", k, v, ok, want, existed)
				}
			case 3:
				_, existed := ref[k]
				if tr.Update(k, uint64(i)+1) != existed {
					t.Fatalf("update(%v) disagreed with reference", k)
				}
				if existed {
					ref[k] = uint64(i) + 1
				}
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("Len %d != ref %d", tr.Len(), len(ref))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// The full scan must visit exactly the reference keys in order.
		prev := math.Inf(-1)
		visited := 0
		tr.Scan(math.Inf(-1), func(k float64, v uint64) bool {
			if k <= prev {
				t.Fatalf("scan out of order: %v after %v", k, prev)
			}
			prev = k
			if want, ok := ref[k]; !ok || want != v {
				t.Fatalf("scan saw (%v,%v), ref has (%v,%v)", k, v, want, ok)
			}
			visited++
			return true
		})
		if visited != len(ref) {
			t.Fatalf("scan visited %d, ref %d", visited, len(ref))
		}
	})
}

// FuzzBulkLoadScan fuzzes bulk loading with arbitrary byte-derived key
// sets and verifies the loaded tree against its own iterator.
func FuzzBulkLoadScan(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, uint8(0))
	f.Add([]byte{9, 9, 9}, uint8(1))
	f.Add([]byte{}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, variant uint8) {
		seen := make(map[float64]bool)
		var keys []float64
		for i, b := range data {
			k := float64(b)*256 + float64(i%256)
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		cfgs := []Config{
			{RMI: StaticRMI},
			{RMI: AdaptiveRMI},
		}
		cfg := cfgs[int(variant)%len(cfgs)]
		cfg.MaxKeysPerLeaf = 16
		tr, err := BulkLoad(keys, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		it := tr.Iter()
		count := 0
		prev := math.Inf(-1)
		for it.Next() {
			if it.Key() <= prev {
				t.Fatalf("iterator out of order: %v after %v", it.Key(), prev)
			}
			prev = it.Key()
			if !seen[it.Key()] {
				t.Fatalf("iterator invented key %v", it.Key())
			}
			count++
		}
		if count != len(keys) {
			t.Fatalf("iterator saw %d keys, want %d", count, len(keys))
		}
	})
}
