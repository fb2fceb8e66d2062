package alex_test

// Differential integration tests: every index implementation in the
// repository (four ALEX variants, the B+Tree baseline, the Learned Index
// baseline, and the paged ALEX) is driven with the same operation
// sequences and must produce identical answers. A divergence in any one
// implementation — wrong lookup, lost key, mis-ordered scan — fails the
// test and names the culprit.

import (
	"math"
	"math/rand"
	"testing"

	alex "repro"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/learned"
	"repro/internal/paged"
	"repro/internal/pagestore"
)

// kvIndex is the common differential surface.
type kvIndex interface {
	Get(key float64) (uint64, bool)
	Insert(key float64, payload uint64) bool
	Delete(key float64) bool
	Len() int
	ScanN(start float64, max int) ([]float64, []uint64)
}

// pagedAdapter lifts *paged.Index (whose mutating methods return errors)
// into kvIndex.
type pagedAdapter struct{ ix *paged.Index }

func (p pagedAdapter) Get(k float64) (uint64, bool) { return p.ix.Get(k) }
func (p pagedAdapter) Insert(k float64, v uint64) bool {
	ins, err := p.ix.Insert(k, v)
	if err != nil {
		panic(err)
	}
	return ins
}
func (p pagedAdapter) Delete(k float64) bool {
	del, err := p.ix.Delete(k)
	if err != nil {
		panic(err)
	}
	return del
}
func (p pagedAdapter) Len() int { return p.ix.Len() }
func (p pagedAdapter) ScanN(start float64, max int) ([]float64, []uint64) {
	keys, vals, err := p.ix.ScanN(start, max)
	if err != nil {
		panic(err)
	}
	return keys, vals
}

// facadeAdapter lifts *alex.Index (no-op: it already matches).
type facadeAdapter struct{ *alex.Index }

func buildAll(t *testing.T, init []float64) map[string]kvIndex {
	t.Helper()
	sorted := datasets.Sorted(init)
	out := make(map[string]kvIndex)
	for _, cfg := range []core.Config{
		{RMI: core.StaticRMI},
		{RMI: core.AdaptiveRMI, SplitOnInsert: true},
	} {
		cfg.MaxKeysPerLeaf = 256
		out[cfg.VariantName()] = core.BulkLoadSorted(sorted, nil, cfg)
	}
	out["B+Tree"] = btree.BulkLoad(sorted, nil, btree.Config{PageSizeBytes: 128})
	li, err := learned.BulkLoad(init, nil, learned.Config{NumModels: 8, RetrainEvery: 512})
	if err != nil {
		t.Fatal(err)
	}
	out["LearnedIndex"] = li
	pg, err := paged.BulkLoad(init, nil, pagestore.NewMemStore(1024), paged.Config{PageSize: 1024, CachePages: 4})
	if err != nil {
		t.Fatal(err)
	}
	out["PagedALEX"] = pagedAdapter{pg}
	facade, err := alex.Load(init, nil, alex.WithMaxKeysPerLeaf(256), alex.WithSplitOnInsert())
	if err != nil {
		t.Fatal(err)
	}
	out["Facade"] = facadeAdapter{facade}
	return out
}

func TestDifferentialAllImplementations(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	init := datasets.GenLognormal(5000, 97)
	indexes := buildAll(t, init)
	ref := make(map[float64]uint64, len(init))
	for _, k := range init {
		ref[k] = 0
	}
	keyPool := append([]float64(nil), init...)

	for step := 0; step < 30000; step++ {
		var k float64
		if rng.Intn(2) == 0 && len(keyPool) > 0 {
			k = keyPool[rng.Intn(len(keyPool))]
		} else {
			k = math.Floor(rng.Float64()*1e12) + 0.5
		}
		switch rng.Intn(4) {
		case 0: // insert
			_, existed := ref[k]
			v := uint64(step) + 1
			for name, ix := range indexes {
				if ins := ix.Insert(k, v); ins == existed {
					t.Fatalf("step %d: %s Insert(%v) = %v, existed = %v", step, name, k, ins, existed)
				}
			}
			if !existed {
				keyPool = append(keyPool, k)
			}
			ref[k] = v
		case 1: // delete
			_, existed := ref[k]
			for name, ix := range indexes {
				if del := ix.Delete(k); del != existed {
					t.Fatalf("step %d: %s Delete(%v) = %v, want %v", step, name, k, del, existed)
				}
			}
			delete(ref, k)
		case 2: // get
			want, existed := ref[k]
			for name, ix := range indexes {
				v, ok := ix.Get(k)
				if ok != existed || (ok && v != want) {
					t.Fatalf("step %d: %s Get(%v) = (%v,%v), want (%v,%v)", step, name, k, v, ok, want, existed)
				}
			}
		case 3: // short scan, compared across implementations
			var wantK []float64
			first := true
			for name, ix := range indexes {
				gotK, _ := ix.ScanN(k, 8)
				if first {
					wantK = gotK
					first = false
					continue
				}
				if len(gotK) != len(wantK) {
					t.Fatalf("step %d: %s scan length %d != %d", step, name, len(gotK), len(wantK))
				}
				for i := range gotK {
					if gotK[i] != wantK[i] {
						t.Fatalf("step %d: %s scan[%d] = %v, others saw %v", step, name, i, gotK[i], wantK[i])
					}
				}
			}
		}
	}
	for name, ix := range indexes {
		if ix.Len() != len(ref) {
			t.Fatalf("%s: final Len %d != ref %d", name, ix.Len(), len(ref))
		}
	}
}

func TestDifferentialSequentialAndShift(t *testing.T) {
	// The adversarial patterns of Fig 5b/5c, differentially.
	init := make([]float64, 2000)
	for i := range init {
		init[i] = float64(i)
	}
	indexes := buildAll(t, init)
	// Sequential appends, then a disjoint-domain burst.
	for i := 0; i < 3000; i++ {
		k := float64(2000 + i)
		for name, ix := range indexes {
			if !ix.Insert(k, uint64(i)) {
				t.Fatalf("%s: sequential insert %v failed", name, k)
			}
		}
	}
	for i := 0; i < 3000; i++ {
		k := 1e9 + float64(i)
		for name, ix := range indexes {
			if !ix.Insert(k, uint64(i)) {
				t.Fatalf("%s: shifted insert %v failed", name, k)
			}
		}
	}
	// Everything answers identically at the seams.
	for _, probe := range []float64{-1, 0, 1999.5, 2000, 4999, 5000, 1e9 - 1, 1e9, 1e9 + 2999, 2e9} {
		var wantV uint64
		var wantOK bool
		first := true
		for name, ix := range indexes {
			v, ok := ix.Get(probe)
			if first {
				wantV, wantOK = v, ok
				first = false
				continue
			}
			if ok != wantOK || (ok && v != wantV) {
				t.Fatalf("%s: Get(%v) = (%v,%v), others saw (%v,%v)", name, probe, v, ok, wantV, wantOK)
			}
		}
	}
}
