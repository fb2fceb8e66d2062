package gapped

import (
	"math"
	"testing"
)

// FuzzArrayOps drives a gapped array through its copy-on-write writers
// with byte-decoded operations and cross-checks a map plus the full
// invariant set at the end.
func FuzzArrayOps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, 0.8)
	f.Add([]byte{9, 9, 9, 9}, 0.5)
	f.Add([]byte{0, 255, 0, 255, 128, 128}, 0.95)
	f.Fuzz(func(t *testing.T, data []byte, density float64) {
		if math.IsNaN(density) {
			density = 0.8
		}
		a := newLeaf(Config{Density: density})
		ref := make(map[float64]uint64)
		for i := 0; i+1 < len(data); i += 2 {
			k := float64(data[i+1])
			switch data[i] % 3 {
			case 0:
				ins := a.insert(k, uint64(i))
				if _, existed := ref[k]; existed == ins {
					t.Fatalf("insert(%v) = %v, existed %v", k, ins, existed)
				}
				ref[k] = uint64(i)
			case 1:
				_, existed := ref[k]
				if a.del(k) != existed {
					t.Fatalf("delete(%v) disagreed", k)
				}
				delete(ref, k)
			case 2:
				v, ok := a.Lookup(k)
				want, existed := ref[k]
				if ok != existed || (ok && v != want) {
					t.Fatalf("lookup(%v) = (%v,%v), want (%v,%v)", k, v, ok, want, existed)
				}
			}
		}
		if a.Num() != len(ref) {
			t.Fatalf("Num %d != %d", a.Num(), len(ref))
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
