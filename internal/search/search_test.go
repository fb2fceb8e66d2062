package search

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func refLowerBound(a []float64, key float64) int {
	return sort.SearchFloat64s(a, key)
}

func sortedRandom(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	a := make([]float64, n)
	for i := range a {
		a[i] = rng.Float64() * 1000
	}
	sort.Float64s(a)
	return a
}

func TestLowerBoundMatchesSort(t *testing.T) {
	a := sortedRandom(1000, 1)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		key := rng.Float64() * 1100
		if got, want := LowerBound(a, key), refLowerBound(a, key); got != want {
			t.Fatalf("LowerBound(%v) = %d, want %d", key, got, want)
		}
	}
	// Exact keys must be found at their first occurrence.
	for i, k := range a {
		got := LowerBound(a, k)
		if a[got] != k || got > i {
			t.Fatalf("LowerBound(exact %v) = %d", k, got)
		}
	}
}

func TestUpperBound(t *testing.T) {
	a := []float64{1, 2, 2, 2, 3}
	if got := UpperBound(a, 2); got != 4 {
		t.Fatalf("UpperBound(2) = %d, want 4", got)
	}
	if got := UpperBound(a, 0); got != 0 {
		t.Fatalf("UpperBound(0) = %d, want 0", got)
	}
	if got := UpperBound(a, 9); got != 5 {
		t.Fatalf("UpperBound(9) = %d, want 5", got)
	}
}

func TestExponentialFromAnyStart(t *testing.T) {
	a := sortedRandom(512, 3)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		key := rng.Float64() * 1100
		pos := rng.Intn(len(a)+40) - 20 // deliberately out-of-range starts too
		if got, want := Exponential(a, key, pos), refLowerBound(a, key); got != want {
			t.Fatalf("Exponential(key=%v, pos=%d) = %d, want %d", key, pos, got, want)
		}
	}
}

func TestExponentialEdgeCases(t *testing.T) {
	if got := Exponential(nil, 5, 0); got != 0 {
		t.Fatalf("empty slice = %d", got)
	}
	one := []float64{10}
	if got := Exponential(one, 5, 0); got != 0 {
		t.Fatalf("before single = %d", got)
	}
	if got := Exponential(one, 15, 0); got != 1 {
		t.Fatalf("after single = %d", got)
	}
	if got := Exponential(one, 10, 0); got != 0 {
		t.Fatalf("exact single = %d", got)
	}
	dup := []float64{5, 5, 5, 5}
	if got := Exponential(dup, 5, 3); got != 0 {
		t.Fatalf("duplicates lower bound = %d, want 0", got)
	}
}

func TestBoundedBinaryWithTrueBounds(t *testing.T) {
	a := sortedRandom(1000, 5)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 2000; i++ {
		key := a[rng.Intn(len(a))]
		want := refLowerBound(a, key)
		// Give a prediction within a synthetic error of the true pos.
		err := rng.Intn(64)
		pos := want + rng.Intn(2*err+1) - err
		got := BoundedBinary(a, key, pos, err, err)
		if got != want {
			t.Fatalf("BoundedBinary(key=%v pos=%d err=%d) = %d, want %d", key, pos, err, got, want)
		}
	}
}

func TestBoundedBinaryClamping(t *testing.T) {
	a := []float64{1, 2, 3}
	if got := BoundedBinary(a, 2, -10, 1, 1); got != refLowerBound(a, 2) {
		// window [-11, -8] clamps to empty at 0; nearest edge returned
		t.Logf("clamped result %d (window miss is acceptable, caller verifies)", got)
	}
	if got := BoundedBinary(a, 99, 2, 0, 0); got < 2 || got > 3 {
		t.Fatalf("edge clamp = %d", got)
	}
	if got := BoundedBinary(nil, 1, 0, 5, 5); got != 0 {
		t.Fatalf("empty = %d", got)
	}
}

func TestInterpolationMatchesSort(t *testing.T) {
	a := sortedRandom(1000, 7)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		key := rng.Float64() * 1100
		if got, want := Interpolation(a, key), refLowerBound(a, key); got != want {
			t.Fatalf("Interpolation(%v) = %d, want %d", key, got, want)
		}
	}
	for _, k := range a[:50] {
		if got, want := Interpolation(a, k), refLowerBound(a, k); got != want {
			t.Fatalf("Interpolation(exact %v) = %d, want %d", k, got, want)
		}
	}
	if got := Interpolation(nil, 5); got != 0 {
		t.Fatalf("empty = %d", got)
	}
}

func TestProbesAgreeWithPlainRoutines(t *testing.T) {
	a := sortedRandom(777, 9)
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 3000; i++ {
		key := rng.Float64() * 1100
		pos := rng.Intn(len(a))
		var p Probes
		if got, want := p.Exponential(a, key, pos), Exponential(a, key, pos); got != want {
			t.Fatalf("Probes.Exponential = %d, want %d", got, want)
		}
		if p.Comparisons <= 0 {
			t.Fatal("no comparisons counted")
		}
		var q Probes
		if got, want := q.BoundedBinary(a, key, pos, 32, 32), BoundedBinary(a, key, pos, 32, 32); got != want {
			t.Fatalf("Probes.BoundedBinary = %d, want %d", got, want)
		}
	}
}

// The central claim behind Fig 11: exponential search cost scales with the
// log of the prediction error, so small errors must cost fewer
// comparisons than a bounded binary search with wide bounds.
func TestExponentialCheaperOnSmallError(t *testing.T) {
	n := 1 << 20
	a := make([]float64, n)
	for i := range a {
		a[i] = float64(i)
	}
	truePos := n / 2
	key := a[truePos]

	var small, big, bounded Probes
	small.Exponential(a, key, truePos+2)
	big.Exponential(a, key, truePos+4096)
	bounded.BoundedBinary(a, key, truePos+2, 4096, 4096)

	if small.Comparisons >= big.Comparisons {
		t.Fatalf("error-2 search (%d cmps) should beat error-4096 (%d cmps)", small.Comparisons, big.Comparisons)
	}
	if small.Comparisons >= bounded.Comparisons {
		t.Fatalf("exp search with tiny error (%d cmps) should beat bounded binary with 4096 bounds (%d cmps)", small.Comparisons, bounded.Comparisons)
	}
}

// Property: Exponential agrees with sort.SearchFloat64s for arbitrary
// sorted inputs and arbitrary starting positions.
func TestQuickExponential(t *testing.T) {
	f := func(raw []float64, key float64, posSeed uint16) bool {
		a := raw[:0]
		for _, v := range raw {
			if v == v { // drop NaN
				a = append(a, v)
			}
		}
		sort.Float64s(a)
		if key != key {
			return true
		}
		pos := 0
		if len(a) > 0 {
			pos = int(posSeed) % len(a)
		}
		return Exponential(a, key, pos) == refLowerBound(a, key)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExponentialError8(b *testing.B)    { benchExp(b, 8) }
func BenchmarkExponentialError1024(b *testing.B) { benchExp(b, 1024) }

func benchExp(b *testing.B, errSize int) {
	n := 1 << 22
	a := make([]float64, n)
	for i := range a {
		a[i] = float64(i)
	}
	rng := rand.New(rand.NewSource(11))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		truePos := rng.Intn(n - 2*errSize - 2)
		_ = Exponential(a, a[truePos+errSize], truePos)
	}
}

func BenchmarkBoundedBinaryError1024(b *testing.B) {
	n := 1 << 22
	a := make([]float64, n)
	for i := range a {
		a[i] = float64(i)
	}
	rng := rand.New(rand.NewSource(12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		truePos := rng.Intn(n-2048) + 1024
		_ = BoundedBinary(a, a[truePos], truePos-7, 1024, 1024)
	}
}

// The branchless variant must agree with its branching counterpart on
// every input: random windows, duplicate runs, and both empty and
// degenerate slices.
func TestBranchlessVariantsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(130) // includes 0-length slices
		a := sortedRandom(n, int64(trial))
		// Inject duplicate runs so lower-bound ties are exercised.
		for i := 1; i < len(a); i++ {
			if rng.Intn(4) == 0 {
				a[i] = a[i-1]
			}
		}
		sort.Float64s(a)
		for probe := 0; probe < 200; probe++ {
			key := rng.Float64()*1100 - 50
			if rng.Intn(3) == 0 && n > 0 {
				key = a[rng.Intn(n)] // exact hits
			}
			pos := rng.Intn(150) - 20
			errLo, errHi := rng.Intn(40), rng.Intn(40)
			got := BoundedBinaryBranchless(a, key, pos, errLo, errHi)
			want := BoundedBinary(a, key, pos, errLo, errHi)
			if got != want {
				t.Fatalf("BoundedBinaryBranchless(n=%d, %v, pos=%d, -%d/+%d) = %d, want %d",
					n, key, pos, errLo, errHi, got, want)
			}
		}
	}
}

// Property (ISSUE 5 bugfix sweep): on arrays holding the extremes the
// data nodes actually produce — duplicates (gap fills), +Inf tails,
// ±Inf elements — every positioned search must agree with
// sort.SearchFloat64s for every key, including NaN and ±Inf keys, from
// any starting position and with any window at least as wide as the
// true error. The branchless CMOV variants had no NaN-key guard: they
// used to return the (clamped) predicted position for a NaN key where
// every whole-slice routine returns 0, a divergence the batch
// run-advance loops had to paper over one forced-progress key at a
// time.
func TestErrBoundQuickSearchExtremes(t *testing.T) {
	type tcase struct {
		Raw     []float64
		KeySeed uint16
		PosSeed uint16
		Neg     bool // try a -Inf head / +Inf tail decoration
	}
	// The reference pins the package's NaN-key convention: NaN sorts
	// first (as in sort.Float64sAreSorted's total order), so its lower
	// bound is 0. sort.SearchFloat64s alone would return len(a) — its
	// ">= NaN" predicate is false everywhere — which is why the
	// convention needs pinning at all.
	ref := func(a []float64, key float64) int {
		if math.IsNaN(key) {
			return 0
		}
		return refLowerBound(a, key)
	}
	f := func(c tcase) bool {
		a := make([]float64, 0, len(c.Raw)+4)
		for _, v := range c.Raw {
			if v == v { // drop NaN from the array: data nodes never store it
				a = append(a, v)
			}
		}
		sort.Float64s(a)
		// Duplicate runs and infinity decorations, like gap fills.
		if len(a) > 1 {
			a[len(a)/2] = a[len(a)/2-1]
		}
		if c.Neg {
			a = append([]float64{math.Inf(-1)}, a...)
		}
		a = append(a, math.Inf(1), math.Inf(1))
		keys := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0}
		if len(c.Raw) > 0 {
			keys = append(keys, c.Raw[int(c.KeySeed)%len(c.Raw)])
		}
		for _, key := range keys {
			want := ref(a, key)
			pos := int(c.PosSeed) % (len(a) + 7) // deliberately past the end too
			if got := Exponential(a, key, pos); got != want {
				t.Logf("Exponential(%v, %v, pos=%d) = %d, want %d", a, key, pos, got, want)
				return false
			}
			// A window covering the whole slice must reproduce the exact
			// lower bound (the contract the per-leaf error bound relies
			// on: window ⊇ true position ⇒ exact result). The window is
			// relative to pos, which the bounded searches deliberately do
			// not clamp — real callers pass an in-range prediction, so
			// the check does too.
			bpos := pos
			if bpos >= len(a) && len(a) > 0 {
				bpos = len(a) - 1
			}
			if got := BoundedBinary(a, key, bpos, len(a), len(a)); got != want {
				t.Logf("BoundedBinary(%v, %v, pos=%d, full) = %d, want %d", a, key, bpos, got, want)
				return false
			}
			if got := BoundedBinaryBranchless(a, key, bpos, len(a), len(a)); got != want {
				t.Logf("BoundedBinaryBranchless(%v, %v, pos=%d, full) = %d, want %d", a, key, bpos, got, want)
				return false
			}
			// Exact windows around the true position, NaN keys excluded
			// (their "position" is the degenerate 0, not pos±err).
			if key == key {
				errLo, errHi := bpos-want, want-bpos
				if errLo < 0 {
					errLo = 0
				}
				if errHi < 0 {
					errHi = 0
				}
				if got := BoundedBinaryBranchless(a, key, bpos, errLo, errHi); got != want {
					t.Logf("BoundedBinaryBranchless(%v, %v, pos=%d, -%d/+%d) = %d, want %d",
						a, key, bpos, errLo, errHi, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// NaN elements never occur inside a data node's key array (occupied
// keys are finite, fills duplicate an occupied key or are +Inf), but a
// defensive guarantee still holds: on arrays with NaNs at arbitrary
// positions every routine terminates — the doubling loops' comparisons
// against NaN are all false, so they exit rather than hang the way the
// PR 4 batch run-advance loops did — and returns an index in [0, len].
func TestSearchNaNElementsTerminate(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(40)
		a := make([]float64, n)
		for i := range a {
			switch rng.Intn(5) {
			case 0:
				a[i] = math.NaN()
			case 1:
				a[i] = math.Inf(1)
			default:
				a[i] = rng.Float64() * 100
			}
		}
		key := rng.Float64() * 120
		switch rng.Intn(4) {
		case 0:
			key = math.NaN()
		case 1:
			key = math.Inf(1)
		}
		pos := rng.Intn(50) - 5
		for name, got := range map[string]int{
			"Exponential":             Exponential(a, key, pos),
			"BoundedBinary":           BoundedBinary(a, key, pos, 8, 8),
			"BoundedBinaryBranchless": BoundedBinaryBranchless(a, key, pos, 8, 8),
			"LowerBound":              LowerBound(a, key),
		} {
			if got < 0 || got > len(a) {
				t.Fatalf("%s(n=%d, key=%v, pos=%d) = %d out of range", name, n, key, pos, got)
			}
		}
	}
}
