// Package search implements local search routines over sorted float64
// slices: exponential search from a predicted position (ALEX, §3.2) and
// binary search within error bounds (Kraska et al.). The Learned Index
// baseline, the B+Tree baselines and the Fig 11 microbenchmark use them;
// the ALEX data node runs its own branch-free copies over its {key,
// payload} slot array (internal/gapped). All return *lower-bound*
// positions, i.e. the first index whose key is >= the target (len(a) if
// no such index exists).
//
// A NaN key has no ordered position; every routine returns 0 for it,
// matching sort.SearchFloat64s (whose predicate a[i] < NaN is false
// everywhere). The whole-slice searches get this for free from the
// comparison semantics; the positioned searches (Exponential,
// BoundedBinary*) guard explicitly, because their bracketing starts at
// the caller's predicted position and would otherwise return it — a
// divergence the batch paths' forced-progress guards used to paper
// over one key at a time.
//
// The package also provides interpolation search, which the paper's
// related-work discussion (§6, [10]) compares against, and simple probe
// counters so microbenchmarks (Fig 11) can report comparison counts.
package search

import "math"

// LowerBound returns the first index i in the sorted slice a with
// a[i] >= key, or len(a) if none. Plain binary search over the whole
// slice; the baseline every other routine is measured against.
func LowerBound(a []float64, key float64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// UpperBound returns the first index i with a[i] > key, or len(a).
func UpperBound(a []float64, key float64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// LowerBoundRange is LowerBound restricted to a[lo:hi].
func LowerBoundRange(a []float64, key float64, lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > len(a) {
		hi = len(a)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Exponential finds the lower-bound position of key in the sorted slice a,
// starting from the predicted position pos and doubling the step until the
// target is bracketed, then binary-searching the bracket. This is the
// ALEX leaf search: cost grows with log of the prediction error rather
// than log of the node size.
func Exponential(a []float64, key float64, pos int) int {
	n := len(a)
	if n == 0 || math.IsNaN(key) {
		return 0
	}
	if pos < 0 {
		pos = 0
	} else if pos >= n {
		pos = n - 1
	}
	if a[pos] < key {
		// Target is to the right: bracket (pos+step/2, pos+step].
		step := 1
		lo, hi := pos+1, pos+1
		for hi < n && a[hi] < key {
			lo = hi + 1
			step <<= 1
			hi = pos + step
			if hi >= n {
				hi = n
				break
			}
		}
		if hi < n && a[hi] >= key {
			hi++ // a[hi] may itself be the lower bound
		}
		return LowerBoundRange(a, key, lo, hi)
	}
	// a[pos] >= key: target is at pos or to the left.
	step := 1
	lo, hi := pos, pos
	for lo > 0 && a[lo] >= key {
		hi = lo
		step <<= 1
		lo = pos - step
		if lo < 0 {
			lo = 0
			break
		}
	}
	return LowerBoundRange(a, key, lo, hi+1)
}

// BoundedBinary performs the Learned Index search: binary search for key
// limited to [pos-errLo, pos+errHi] (clamped to the slice). If the key
// would fall outside the window, the nearest window edge is returned;
// callers that cannot trust their bounds should verify and fall back to
// LowerBound.
func BoundedBinary(a []float64, key float64, pos, errLo, errHi int) int {
	if math.IsNaN(key) {
		return 0
	}
	lo := pos - errLo
	hi := pos + errHi + 1
	if lo < 0 {
		lo = 0
	}
	if hi > len(a) {
		hi = len(a)
	}
	if lo >= hi {
		if lo > len(a) {
			return len(a)
		}
		return lo
	}
	return LowerBoundRange(a, key, lo, hi)
}

// lowerBoundBranchless finds the first index in [lo, hi) with
// a[i] >= key (hi if none) without data-dependent branches: each step
// halves the window [base, base+n] with a conditional base advance the
// compiler lowers to CMOV, so the probe pipeline never stalls on a
// mispredicted key comparison. Callers must pass 0 <= lo <= hi <= len(a).
// (The ALEX data node runs its own copies of the branch-free searches
// over its slot array; see internal/gapped.)
func lowerBoundBranchless(a []float64, key float64, lo, hi int) int {
	n := hi - lo
	if n <= 0 {
		return lo
	}
	base := lo
	for n > 1 {
		half := n >> 1
		if a[base+half-1] < key { // lowered to CMOV: no branch to mispredict
			base += half
		}
		n -= half
	}
	if a[base] < key {
		base++
	}
	return base
}

// BoundedBinaryBranchless is BoundedBinary over the branch-free probe
// loop; same window clamping, same result.
func BoundedBinaryBranchless(a []float64, key float64, pos, errLo, errHi int) int {
	if math.IsNaN(key) {
		return 0
	}
	lo := pos - errLo
	hi := pos + errHi + 1
	if lo < 0 {
		lo = 0
	}
	if hi > len(a) {
		hi = len(a)
	}
	if lo >= hi {
		if lo > len(a) {
			return len(a)
		}
		return lo
	}
	return lowerBoundBranchless(a, key, lo, hi)
}

// Interpolation performs classic interpolation search for the lower bound
// of key in a, falling back to binary search when the value distribution
// stops shrinking the window. Included for the §6 comparison and as a
// sanity baseline in microbenchmarks.
func Interpolation(a []float64, key float64) int {
	lo, hi := 0, len(a)-1
	if len(a) == 0 {
		return 0
	}
	for lo <= hi && key >= a[lo] && key <= a[hi] {
		if a[hi] == a[lo] {
			break
		}
		mid := lo + int(float64(hi-lo)*(key-a[lo])/(a[hi]-a[lo]))
		if mid < lo {
			mid = lo
		} else if mid > hi {
			mid = hi
		}
		switch {
		case a[mid] < key:
			lo = mid + 1
		case mid > 0 && a[mid-1] >= key:
			hi = mid - 1
		default:
			return LowerBoundRange(a, key, lo, mid+1)
		}
	}
	return LowerBoundRange(a, key, lo, hi+1)
}

// Probes mirrors the main routines but counts key comparisons, used by the
// Fig 11 microbenchmark to report work as a function of prediction error.
type Probes struct {
	Comparisons int
}

// Exponential is Exponential with comparison counting.
func (p *Probes) Exponential(a []float64, key float64, pos int) int {
	n := len(a)
	if n == 0 || math.IsNaN(key) {
		return 0
	}
	if pos < 0 {
		pos = 0
	} else if pos >= n {
		pos = n - 1
	}
	p.Comparisons++
	if a[pos] < key {
		step := 1
		lo, hi := pos+1, pos+1
		for hi < n {
			p.Comparisons++
			if a[hi] >= key {
				hi++
				break
			}
			lo = hi + 1
			step <<= 1
			hi = pos + step
		}
		if hi > n {
			hi = n
		}
		return p.lowerBound(a, key, lo, hi)
	}
	step := 1
	lo, hi := pos, pos
	for lo > 0 {
		p.Comparisons++
		if a[lo] < key {
			break
		}
		hi = lo
		step <<= 1
		lo = pos - step
		if lo < 0 {
			lo = 0
			p.Comparisons++
			break
		}
	}
	return p.lowerBound(a, key, lo, hi+1)
}

// BoundedBinary is BoundedBinary with comparison counting.
func (p *Probes) BoundedBinary(a []float64, key float64, pos, errLo, errHi int) int {
	if math.IsNaN(key) {
		return 0
	}
	lo := pos - errLo
	hi := pos + errHi + 1
	if lo < 0 {
		lo = 0
	}
	if hi > len(a) {
		hi = len(a)
	}
	if lo >= hi {
		if lo > len(a) {
			return len(a)
		}
		return lo
	}
	return p.lowerBound(a, key, lo, hi)
}

func (p *Probes) lowerBound(a []float64, key float64, lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > len(a) {
		hi = len(a)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		p.Comparisons++
		if a[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
