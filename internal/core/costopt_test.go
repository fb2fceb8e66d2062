package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// fuzzDist generates n sorted unique finite keys for one adversarial
// distribution family.
type fuzzDist struct {
	name string
	gen  func(n int, seed int64) []float64
}

func uniqueSorted(n int, seed int64, draw func(*rand.Rand) float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[float64]bool, n)
	keys := make([]float64, 0, n)
	for len(keys) < n {
		k := draw(rng)
		if math.IsNaN(k) || math.IsInf(k, 0) || seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	return keys
}

var fuzzDists = []fuzzDist{
	{"uniform", func(n int, seed int64) []float64 {
		return uniqueSorted(n, seed, func(r *rand.Rand) float64 { return r.Float64() * 1e6 })
	}},
	{"lognormal", func(n int, seed int64) []float64 {
		return uniqueSorted(n, seed, func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64() * 3) })
	}},
	{"clustered", func(n int, seed int64) []float64 {
		return uniqueSorted(n, seed, func(r *rand.Rand) float64 {
			return float64(r.Intn(16))*1e10 + r.NormFloat64()
		})
	}},
	{"sequential", func(n int, seed int64) []float64 {
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = float64(i) * 3
		}
		return keys
	}},
	// Duplicate-free keys adjacent to ±MaxFloat64 and to zero: the
	// magnitudes where model training cancels catastrophically and
	// slot predictions overflow if unclamped.
	{"extremes", genExtremes},
}

func genExtremes(n int, _ int64) []float64 {
	seen := make(map[float64]bool, n)
	keys := make([]float64, 0, n)
	hi := math.MaxFloat64
	lo := -math.MaxFloat64
	d := 5e-324
	for len(keys) < n {
		for _, k := range []float64{hi, lo, d, -d} {
			if !seen[k] && len(keys) < n {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		hi = math.Nextafter(hi, 0)
		lo = math.Nextafter(lo, 0)
		d *= 1.5
		if math.IsInf(d, 0) {
			d = 7e-324
		}
	}
	sort.Float64s(keys)
	return keys
}

// TestCostOptimalEquivalenceFuzz bulk loads every adversarial
// distribution through the fanout-tree planner and requires exactly the
// input key→payload pairs back, with clean invariants (CheckInvariants
// audits the exact post-build ErrBound via each data node's own checks).
func TestCostOptimalEquivalenceFuzz(t *testing.T) {
	for _, dist := range fuzzDists {
		t.Run(dist.name+"/GA", func(t *testing.T) {
			keys := dist.gen(20000, 42)
			payloads := make([]uint64, len(keys))
			for i := range payloads {
				payloads[i] = uint64(i) * 7
			}
			tr := BulkLoadSorted(keys, payloads, Config{MaxKeysPerLeaf: 512})
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
			requireContents(t, tr, keys, payloads)
		})
	}
}

// TestCostOptimalStaticRMIUnaffected: the planner shapes only the
// adaptive RMI; StaticRMI still builds the fixed two-level structure
// over exactly the input pairs.
func TestCostOptimalStaticRMIUnaffected(t *testing.T) {
	keys := fuzzDists[0].gen(8000, 7)
	payloads := make([]uint64, len(keys))
	tr := BulkLoadSorted(keys, payloads, Config{RMI: StaticRMI})
	if h := tr.Height(); h != 2 {
		t.Fatalf("static RMI height %d, want 2", h)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	requireContents(t, tr, keys, payloads)
}

// TestCostOptimalSplitEquivalence drives planned splits through an
// insert storm; the tree must keep clean invariants and hold exactly
// the loaded and inserted pairs.
func TestCostOptimalSplitEquivalence(t *testing.T) {
	for _, dist := range fuzzDists[:3] {
		t.Run(dist.name, func(t *testing.T) {
			all := dist.gen(24000, 99)
			rng := rand.New(rand.NewSource(5))
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			init, stream := all[:8000], all[8000:]
			initK, initP, err := SortPairs(append([]float64(nil), init...), nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := BulkLoadSorted(initK, initP, Config{MaxKeysPerLeaf: 256, SplitOnInsert: true, SplitFanout: 4})
			for _, k := range stream {
				tr.Insert(k, math.Float64bits(k))
			}
			if tr.Stats().Splits == 0 {
				t.Fatal("insert storm split no leaf")
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("invariants after splits: %v", err)
			}
			wantK, wantP, err := SortPairs(all, nil)
			if err != nil {
				t.Fatal(err)
			}
			inserted := make(map[float64]bool, len(stream))
			for _, k := range stream {
				inserted[k] = true
			}
			for i, k := range wantK {
				if inserted[k] {
					wantP[i] = math.Float64bits(k)
				}
			}
			requireContents(t, tr, wantK, wantP)
		})
	}
}

// TestRebuildCostOptimal rebuilds a merge-grown tree through the
// planner and checks contents, invariants, and that a new root is
// published.
func TestRebuildCostOptimal(t *testing.T) {
	keys := fuzzDists[1].gen(30000, 3)
	tr := BulkLoadSorted(keys[:1000], nil, Config{MaxKeysPerLeaf: 512})
	// Grow by merges, the shape recovery replay leaves behind.
	for lo := 1000; lo < len(keys); lo += 4096 {
		hi := lo + 4096
		if hi > len(keys) {
			hi = len(keys)
		}
		tr.Merge(keys[lo:hi], nil)
	}
	oldRoot := tr.root.Load()
	before, _ := chainCollect(tr)
	tr.RebuildCostOptimal()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after rebuild: %v", err)
	}
	after, _ := chainCollect(tr)
	if len(before) != len(after) {
		t.Fatalf("rebuild changed count: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("rebuild changed key %d: %v -> %v", i, before[i], after[i])
		}
	}
	if tr.root.Load() == oldRoot {
		t.Fatal("rebuild did not publish a new root")
	}
	// Rebuilding an empty tree must stay sane too.
	empty := New(Config{})
	empty.RebuildCostOptimal()
	if err := empty.CheckInvariants(); err != nil {
		t.Fatalf("invariants after empty rebuild: %v", err)
	}
}

// chainCollect walks the leaf chain directly, so keys beyond Scan's
// -1e308 start (the ±MaxFloat64-adjacent extremes) are included.
func chainCollect(tr *Tree) ([]float64, []uint64) {
	var ks []float64
	var ps []uint64
	for l := tr.head.Load(); l != nil; l = l.next.Load() {
		ks, ps = l.data().Collect(ks, ps)
	}
	return ks, ps
}

// requireContents checks that the tree holds exactly the sorted pairs
// keys/payloads.
func requireContents(t *testing.T, tr *Tree, keys []float64, payloads []uint64) {
	t.Helper()
	if tr.Len() != len(keys) {
		t.Fatalf("Len %d, want %d", tr.Len(), len(keys))
	}
	gk, gp := chainCollect(tr)
	if len(gk) != len(keys) {
		t.Fatalf("collected %d pairs, want %d", len(gk), len(keys))
	}
	for i := range gk {
		if gk[i] != keys[i] || gp[i] != payloads[i] {
			t.Fatalf("pair %d is (%v,%d), want (%v,%d)", i, gk[i], gp[i], keys[i], payloads[i])
		}
	}
}
