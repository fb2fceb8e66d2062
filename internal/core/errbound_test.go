package core

import (
	"math/rand"
	"testing"

	"repro/internal/gapped"
)

// driftKeys bulk-loads a uniform key set and returns a clumped insert
// stream aimed at a narrow region, the distribution-shift pattern that
// stales a leaf's model without tripping its density bound first.
func driftKeys(n int) (load, stream []float64) {
	load = make([]float64, n)
	for i := range load {
		load[i] = float64(i)
	}
	rng := rand.New(rand.NewSource(42))
	stream = make([]float64, 4*n)
	for i := range stream {
		// Everything lands between two adjacent loaded keys, so the
		// leaf's trained model (fit on the uniform load) mispredicts the
		// clump by ever more slots as it grows.
		stream[i] = float64(n/2) + rng.Float64()*0.9999
	}
	return load, stream
}

// TestErrBoundCostRetrainOnDrift asserts the tentpole feedback loop:
// a chronically mispredicting leaf (clumped inserts under a model fit
// on uniform data) must trigger cost-model retrains — not just density
// expansions — and the tree must stay fully consistent throughout.
func TestErrBoundCostRetrainOnDrift(t *testing.T) {
	load, stream := driftKeys(8192)
	tr := BulkLoadSorted(load, nil, Config{})
	for i, k := range stream {
		tr.Insert(k, uint64(i))
		if i%1024 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d drift inserts: %v", i, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.CostRetrains == 0 {
		t.Fatalf("no cost-model retrains under drift (max leaf err %d, retrains %d)",
			st.MaxLeafErr, st.Retrains)
	}
	// Every key — loaded and drifted — must still be found.
	for _, k := range load {
		if _, ok := tr.Get(k); !ok {
			t.Fatalf("loaded key %v lost", k)
		}
	}
	for i, k := range stream {
		if _, ok := tr.Get(k); !ok {
			t.Fatalf("drift key %v (#%d) lost", k, i)
		}
	}
}

// TestErrBoundStatsDistribution checks the Stats error-distribution
// block: histogram totals match the modeled-leaf count, percentiles are
// monotone and within [0, MaxLeafErr], and the key-weighted shares add
// up.
func TestErrBoundStatsDistribution(t *testing.T) {
	load, stream := driftKeys(4096)
	tr := BulkLoadSorted(load, nil, Config{})
	for i, k := range stream[:8192] {
		tr.Insert(k, uint64(i))
	}
	st := tr.Stats()
	var histTotal uint64
	for _, c := range st.ErrHist {
		histTotal += c
	}
	modeled := 0
	for l := tr.head.Load(); l != nil; l = l.next.Load() {
		if l.data().ErrorBound() >= 0 {
			modeled++
		}
	}
	if histTotal != uint64(modeled) {
		t.Fatalf("ErrHist total %d != modeled leaves %d", histTotal, modeled)
	}
	p50, p99 := st.LeafErrPercentile(50), st.LeafErrPercentile(99)
	if p50 < 0 || p99 < p50 {
		t.Fatalf("percentiles not monotone: p50=%d p99=%d", p50, p99)
	}
	if p99 > st.MaxLeafErr && st.MaxLeafErr > 0 {
		t.Fatalf("p99=%d above MaxLeafErr=%d", p99, st.MaxLeafErr)
	}
	if st.KeysBounded > st.KeysModeled || st.KeysModeled > st.KeysTotal {
		t.Fatalf("key weights inconsistent: bounded=%d modeled=%d total=%d",
			st.KeysBounded, st.KeysModeled, st.KeysTotal)
	}
	if int(st.KeysTotal) != tr.Len() {
		t.Fatalf("KeysTotal %d != Len %d", st.KeysTotal, tr.Len())
	}
	if share := st.BoundedShare(); share < 0 || share > 1 {
		t.Fatalf("BoundedShare %v out of range", share)
	}
	// Merge must sum histograms and key weights and max the maxima.
	sum := st
	sum.Merge(&st)
	if sum.KeysTotal != 2*st.KeysTotal || sum.MaxLeafErr != st.MaxLeafErr {
		t.Fatalf("Merge: got total=%d max=%d, want total=%d max=%d",
			sum.KeysTotal, sum.MaxLeafErr, 2*st.KeysTotal, st.MaxLeafErr)
	}
}

// TestBoundedSearchAgreesWithExponential runs the same lookups (hits,
// misses, batch and point) with the bounded fast path on and off — the
// two strategies must be observationally identical.
func TestBoundedSearchAgreesWithExponential(t *testing.T) {
	defer gapped.SetBoundedSearch(true)
	load, stream := driftKeys(4096)
	tr := BulkLoadSorted(load, nil, Config{})
	for i, k := range stream[:4096] {
		tr.Insert(k, uint64(i))
	}
	rng := rand.New(rand.NewSource(9))
	queries := make([]float64, 0, 4096)
	queries = append(queries, load[:1024]...)
	queries = append(queries, stream[:1024]...)
	for i := 0; i < 1024; i++ {
		queries = append(queries, rng.Float64()*10000) // mostly misses
	}
	type res struct {
		v  uint64
		ok bool
	}
	run := func(on bool) []res {
		gapped.SetBoundedSearch(on)
		out := make([]res, 0, len(queries)+len(queries))
		for _, q := range queries {
			v, ok := tr.Get(q)
			out = append(out, res{v, ok})
		}
		vals := make([]uint64, len(queries))
		found := make([]bool, len(queries))
		tr.GetBatchInto(queries, vals, found)
		for i := range vals {
			out = append(out, res{vals[i], found[i]})
		}
		return out
	}
	bounded, exponential := run(true), run(false)
	for i := range bounded {
		if bounded[i] != exponential[i] {
			t.Fatalf("result %d: bounded=%+v exponential=%+v", i, bounded[i], exponential[i])
		}
	}
}
