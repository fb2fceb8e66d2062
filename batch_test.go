package alex_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	alex "repro"
	"repro/internal/datasets"
)

// batchOptionSets covers the default and split-on-insert — the
// configurations whose batch paths differ.
func batchOptionSets() [][]alex.Option {
	return [][]alex.Option{
		nil,
		{alex.WithSplitOnInsert(), alex.WithMaxKeysPerLeaf(512)},
	}
}

// assertSameContents fails unless both indexes hold identical elements.
func assertSameContents(t *testing.T, name string, got, want *alex.Index) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len = %d, want %d", name, got.Len(), want.Len())
	}
	gk, gv := got.ScanN(-1e308, got.Len()+1)
	wk, wv := want.ScanN(-1e308, want.Len()+1)
	for i := range gk {
		if gk[i] != wk[i] || gv[i] != wv[i] {
			t.Fatalf("%s: element %d = (%v,%v), want (%v,%v)", name, i, gk[i], gv[i], wk[i], wv[i])
		}
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestBatchEqualsLoop verifies the acceptance property directly: batch
// results are identical to looped single-op results, on random,
// sorted, descending, duplicate-carrying, and empty batches; on batch
// lengths around the lookup group size; on keys at leaf seams, beyond
// both ends of the key space, and at signed zero and the smallest
// denormal; and over a full, an empty, and a one-key index. GetBatch
// is checked before the inserts (a mix of hits and misses) and after.
func TestBatchEqualsLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := datasets.GenLongitudes(20000, 1)
	fresh := datasets.GenLongitudes(30000, 2)[20000:]
	sorted := datasets.Sorted(append([]float64(nil), base...))
	// Half stored keys, half new ones, in random order.
	mixed := make([]float64, 0, 200)
	for i := 0; i < 100; i++ {
		mixed = append(mixed, base[1000+i], fresh[9000+i])
	}

	cases := map[string][]float64{
		"empty":  {},
		"random": append(append([]float64(nil), fresh[:4000]...), base[:300]...),
		"sorted": datasets.Sorted(append(append([]float64(nil), fresh[4000:8000]...), base[300:600]...)),
		"duplicate": func() []float64 {
			ks := append([]float64(nil), fresh[8000:9000]...)
			ks = append(ks, ks[:250]...) // intra-batch duplicates
			return ks
		}(),
		"descending": func() []float64 {
			ks := datasets.Sorted(append([]float64(nil), mixed...))
			slices.Reverse(ks)
			return append(ks, ks[:20]...) // and duplicates
		}(),
		// The midpoint of every adjacent stored pair: each leaf seam
		// has one, falling between the two leaves' ranges.
		"between": func() []float64 {
			ks := make([]float64, len(sorted)-1)
			for i := range ks {
				ks[i] = sorted[i] + (sorted[i+1]-sorted[i])/2
			}
			return ks
		}(),
		"ends": {
			-math.MaxFloat64, sorted[0] - 1, math.Nextafter(sorted[0], math.Inf(-1)),
			math.Nextafter(sorted[len(sorted)-1], math.Inf(1)), sorted[len(sorted)-1] + 1, math.MaxFloat64,
		},
		"zeros": {-math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64},
	}
	for _, n := range []int{1, 31, 32, 33, 64, 65} {
		cases[fmt.Sprintf("len%d", n)] = mixed[:n]
	}
	bases := map[string][]float64{"full": base, "emptyindex": nil, "onekey": base[:1]}

	for _, opts := range batchOptionSets() {
		for bname, keys := range bases {
			for cname, batch := range cases {
				name := bname + "/" + cname
				pays := make([]uint64, len(batch))
				for i := range pays {
					pays[i] = uint64(rng.Intn(1 << 30))
				}
				batchIdx, err := alex.Load(keys, nil, opts...)
				if err != nil {
					t.Fatal(err)
				}
				loopIdx, err := alex.Load(keys, nil, opts...)
				if err != nil {
					t.Fatal(err)
				}
				checkGet := func(stage string, probe []float64) {
					t.Helper()
					vals, found := batchIdx.GetBatch(probe)
					if len(vals) != len(probe) || len(found) != len(probe) {
						t.Fatalf("%s/%s: GetBatch result lengths %d/%d", name, stage, len(vals), len(found))
					}
					for i, k := range probe {
						wv, wok := loopIdx.Get(k)
						if vals[i] != wv || found[i] != wok {
							t.Fatalf("%s/%s: GetBatch[%d] (key %v) = (%v,%v), Get = (%v,%v)", name, stage, i, k, vals[i], found[i], wv, wok)
						}
					}
				}
				checkGet("before", batch)

				gotN := batchIdx.InsertBatch(batch, pays)
				wantN := 0
				for i := range batch {
					if loopIdx.Insert(batch[i], pays[i]) {
						wantN++
					}
				}
				if gotN != wantN {
					t.Fatalf("%s: InsertBatch = %d, loop = %d", name, gotN, wantN)
				}
				assertSameContents(t, name+"/insert", batchIdx, loopIdx)

				checkGet("after", batch)
				checkGet("after+misses", append(append([]float64(nil), batch...), -1, -2, 1e300))

				del := append(append([]float64(nil), batch...), -1, -2)
				gotD := batchIdx.DeleteBatch(del)
				wantD := 0
				for _, k := range del {
					if loopIdx.Delete(k) {
						wantD++
					}
				}
				if gotD != wantD {
					t.Fatalf("%s: DeleteBatch = %d, loop = %d", name, gotD, wantD)
				}
				assertSameContents(t, name+"/delete", batchIdx, loopIdx)
			}
		}
	}
}

func TestMergeEqualsLoop(t *testing.T) {
	base := datasets.GenLongitudes(15000, 3)
	batch := datasets.GenLongitudes(40000, 4)[15000:]
	batch = append(batch, base[:500]...) // overwrites
	batch = append(batch, batch[0])      // duplicate: last occurrence wins
	pays := make([]uint64, len(batch))
	for i := range pays {
		pays[i] = uint64(i) + 7
	}
	for _, opts := range batchOptionSets() {
		mergeIdx, err := alex.Load(base, nil, opts...)
		if err != nil {
			t.Fatal(err)
		}
		loopIdx, err := alex.Load(base, nil, opts...)
		if err != nil {
			t.Fatal(err)
		}
		gotN := mergeIdx.Merge(batch, pays)
		wantN := 0
		for i := range batch {
			if loopIdx.Insert(batch[i], pays[i]) {
				wantN++
			}
		}
		if gotN != wantN {
			t.Fatalf("Merge = %d, loop = %d", gotN, wantN)
		}
		assertSameContents(t, "merge", mergeIdx, loopIdx)
	}

	// Merge into an empty index is a bulk load.
	empty := alex.New()
	keys := datasets.Sorted(datasets.GenLongitudes(5000, 5))
	if n := empty.Merge(keys, nil); n != len(keys) {
		t.Fatalf("Merge into empty = %d, want %d", n, len(keys))
	}
	if err := empty.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncBatchConcurrent exercises the SyncIndex batch methods under
// concurrent readers and a batch writer; run with -race it doubles as
// the data-race check for the one-lock-per-batch paths.
func TestSyncBatchConcurrent(t *testing.T) {
	base := datasets.GenLongitudes(20000, 6)
	s, err := alex.LoadSync(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseSet := make(map[float64]bool, len(base))
	for _, k := range base {
		baseSet[k] = true
	}
	stream := make([]float64, 0, 40000)
	for _, k := range datasets.GenLongitudes(60000, 7)[20000:] {
		if !baseSet[k] { // the writer deletes stream keys; keep base keys visible to readers
			stream = append(stream, k)
		}
	}
	sort.Float64s(stream)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			probe := append([]float64(nil), base[r*100:r*100+200]...)
			sort.Float64s(probe)
			for {
				select {
				case <-stop:
					return
				default:
				}
				vals, found := s.GetBatch(probe)
				for i := range probe {
					if !found[i] {
						t.Errorf("reader %d: key %v vanished", r, probe[i])
						return
					}
					_ = vals[i]
				}
				s.Len()
			}
		}(r)
	}

	const chunk = 500
	for lo := 0; lo+chunk <= len(stream); lo += chunk {
		ks := stream[lo : lo+chunk]
		ps := make([]uint64, chunk)
		switch (lo / chunk) % 3 {
		case 0:
			s.InsertBatch(ks, ps)
		case 1:
			s.Merge(ks, ps)
		default:
			s.InsertBatch(ks, ps)
			s.DeleteBatch(ks[:chunk/2])
		}
	}
	close(stop)
	wg.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
