package gapped

import (
	"math/rand"
	"testing"
)

// maxTrueErr re-predicts every stored key and returns the node's actual
// maximum prediction error — the quantity ErrBound must never
// under-state.
func maxTrueErr(t *testing.T, a *Array) int {
	t.Helper()
	worst := 0
	for i := a.NextSlot(-1); i >= 0; i = a.NextSlot(i) {
		k, _ := a.At(i)
		e, ok := a.PredictionError(k)
		if !ok {
			t.Fatalf("stored key %v not found by PredictionError", k)
		}
		if e > worst {
			worst = e
		}
	}
	return worst
}

// TestErrBoundUpperBoundProperty drives a gapped array through random
// sequences of its copy-on-write writers — inserts (gap claims, shift
// inserts and expansions), deletes with contraction, sorted batch
// inserts (placed in place or merged), merges, batch deletes, retrains —
// and after every single operation asserts by exhaustive re-prediction
// that the stored bound is a true upper bound on every key's error.
func TestErrBoundUpperBoundProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		a := newLeaf(Config{})
		check := func(op string) {
			t.Helper()
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("seed %d after %s: %v", seed, op, err)
			}
			if !a.HasModel {
				return
			}
			if worst := maxTrueErr(t, a.Array); worst > a.ErrBound {
				t.Fatalf("seed %d after %s: true max error %d exceeds stored bound %d",
					seed, op, worst, a.ErrBound)
			}
		}
		key := func() float64 {
			// Clumped keys (narrow decimal offsets around integer bases)
			// force both gap claims and shift inserts.
			return float64(rng.Intn(200)) + float64(rng.Intn(50))/1000
		}
		for op := 0; op < 2000; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				a.insert(key(), uint64(op))
				check("InsertCOW")
			case 4, 5:
				a.del(key())
				check("DeleteCOW")
			case 6:
				keys := make([]float64, 0, 16)
				pays := make([]uint64, 0, 16)
				base := key()
				for i := 0; i < 16; i++ {
					keys = append(keys, base+float64(i)/1000)
					pays = append(pays, uint64(i))
				}
				a.adopt(a.InsertSortedBatchCOW(keys, pays))
				check("InsertSortedBatchCOW")
			case 7:
				keys := make([]float64, 0, 32)
				pays := make([]uint64, 0, 32)
				base := key()
				for i := 0; i < 32; i++ {
					keys = append(keys, base+float64(i)/500)
					pays = append(pays, uint64(i))
				}
				a.adopt(a.MergeSortedCOW(keys, pays))
				check("MergeSortedCOW")
			case 8:
				keys := []float64{key(), key(), key()}
				sortNonDecreasing(keys)
				a.adopt(a.DeleteSortedBatchCOW(keys))
				check("DeleteSortedBatchCOW")
			case 9:
				a.Array = a.RetrainCOW()
				if a.HasModel {
					// A rebuild recomputes the bound exactly: it must equal
					// the true maximum, not merely bound it.
					if worst := maxTrueErr(t, a.Array); worst != a.ErrBound {
						t.Fatalf("seed %d after RetrainCOW: bound %d != true max error %d",
							seed, a.ErrBound, worst)
					}
				}
				check("RetrainCOW")
			}
		}
		if a.HasModel && a.ErrBound > costRetrainSlack {
			// Not an invariant violation, just a sanity signal that the
			// clumped workload exercised the high-error regime too.
			t.Logf("seed %d: final bound %d (high-error regime reached)", seed, a.ErrBound)
		}
	}
}

func sortNonDecreasing(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
