package gapped

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/search"
)

// slotsOf wraps sorted keys as a slot array whose payloads number the
// positions, so a search that returned a slot by key alone can be told
// apart from one that returned the right slot.
func slotsOf(keys []float64) []Slot {
	s := make([]Slot, len(keys))
	for i, k := range keys {
		s[i] = Slot{k, uint64(i)}
	}
	return s
}

// sortedWithRuns returns n sorted keys in [0, 1000) with duplicate runs
// (like gap fills) and, for some trials, a +Inf tail.
func sortedWithRuns(rng *rand.Rand, n int) []float64 {
	a := make([]float64, n)
	for i := range a {
		a[i] = rng.Float64() * 1000
	}
	sort.Float64s(a)
	for i := 1; i < n; i++ {
		if rng.Intn(4) == 0 {
			a[i] = a[i-1]
		}
	}
	if n > 0 && rng.Intn(3) == 0 {
		a[n-1] = math.Inf(1)
	}
	return a
}

func TestLowerBoundQuick(t *testing.T) {
	f := func(raw []float64, key float64) bool {
		for i, v := range raw {
			if v != v { // NaN would break the sort contract
				raw[i] = 0
			}
		}
		sort.Float64s(raw)
		return lowerBound(slotsOf(raw), key, 0, len(raw)) == search.LowerBound(raw, key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The two window searches must agree with each other and, for windows
// covering the true position, with the whole-slice lower bound — on
// duplicates, +Inf tails and empty, inverted or out-of-range windows
// alike.
func TestLowerBoundWindowVariantsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		a := sortedWithRuns(rng, rng.Intn(100))
		s := slotsOf(a)
		for probe := 0; probe < 100; probe++ {
			key := rng.Float64()*1100 - 50
			if rng.Intn(3) == 0 && len(a) > 0 {
				key = a[rng.Intn(len(a))]
			}
			lo := rng.Intn(120) - 10
			hi := lo + rng.Intn(40) - 2 // empty and inverted windows too
			want := search.LowerBoundRange(a, key, lo, hi)
			if lo > len(a) {
				want = len(a)
			}
			if got := lowerBoundLinear(s, key, lo, hi); got != want {
				t.Fatalf("lowerBoundLinear(n=%d, %v, [%d,%d)) = %d, want %d", len(a), key, lo, hi, got, want)
			}
			clo, chi := max(lo, 0), min(hi, len(a))
			if clo <= chi {
				if got := lowerBound(s, key, clo, chi); got != want {
					t.Fatalf("lowerBound(n=%d, %v, [%d,%d)) = %d, want %d", len(a), key, clo, chi, got, want)
				}
			}
			if got, want := lowerBound(s, key, 0, len(a)), search.LowerBound(a, key); got != want {
				t.Fatalf("full window = %d, want %d", got, want)
			}
		}
	}
}

// exponential must agree with the reference search.Exponential from any
// start, in range or not, for finite, ±Inf and NaN keys.
func TestExponentialMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		a := sortedWithRuns(rng, rng.Intn(130)) // includes 0-length arrays
		s := slotsOf(a)
		for probe := 0; probe < 200; probe++ {
			key := rng.Float64()*1100 - 50
			switch r := rng.Intn(12); {
			case r < 4 && len(a) > 0:
				key = a[rng.Intn(len(a))] // exact hits
			case r == 4:
				key = math.NaN()
			case r == 5:
				key = math.Inf(1)
			case r == 6:
				key = math.Inf(-1)
			}
			pos := rng.Intn(150) - 20
			if got, want := exponential(s, key, pos), search.Exponential(a, key, pos); got != want {
				t.Fatalf("exponential(n=%d, %v, pos=%d) = %d, want %d", len(a), key, pos, got, want)
			}
		}
	}
}
