package gapped

import "math"

// This file holds the three in-leaf searches over the slot array. Each
// returns a lower-bound position: the first slot whose Key is >= key
// (or the end of its window when there is none). They read Key only, so
// they run unchanged over gaps — the fill rule keeps the Key column
// non-decreasing — and a NaN key, which every compare rejects, lands on
// the window's first slot.

// lowerBound finds the first slot in [lo, hi) with Key >= key (hi if
// none) without data-dependent branches: each step halves the window
// [base, base+n] with a conditional base advance the compiler lowers
// to CMOV, so the probe never stalls on a mispredicted key compare.
// Callers must pass 0 <= lo <= hi <= len(s).
func lowerBound(s []Slot, key float64, lo, hi int) int {
	n := hi - lo
	if n <= 0 {
		return lo
	}
	base := lo
	for n > 1 {
		half := n >> 1
		if s[base+half-1].Key < key { // lowered to CMOV: no branch to mispredict
			base += half
		}
		n -= half
	}
	if s[base].Key < key {
		base++
	}
	return base
}

// lowerBoundLinear is the bounded-window probe: the first slot in
// [lo, hi) with Key >= key, by branch-free linear count. On a sorted
// window the slots below key are exactly those left of the lower
// bound, so lo plus their count is the answer — and the compares are
// independent (SETcc, not a branch), where a binary search's probes
// form a serial chain. For the small windows a tight per-leaf error
// bound produces, the out-of-order core runs the whole count at full
// width in fewer cycles than log2(window) dependent loads. The window
// is clamped to the slice; an empty window returns its clamped lo.
func lowerBoundLinear(s []Slot, key float64, lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	if lo >= hi {
		if lo > len(s) {
			return len(s)
		}
		return lo
	}
	w := s[lo:hi]
	n := lo
	for i := range w {
		if w[i].Key < key { // SETcc, not a branch: no misprediction possible
			n++
		}
	}
	return n
}

// exponential finds the lower bound of key starting from the predicted
// slot pos: it doubles the step until the target is bracketed, then
// resolves the bracket with lowerBound. This is the ALEX leaf search of
// §3.2: its cost grows with the log of the prediction error rather
// than the log of the node size. The doubling keeps its branches (they
// are the exit condition), but with a model prediction a few slots off
// the bracket is found in one or two doublings and the remaining work
// is all in the branch-free bracket search. A NaN key returns 0.
func exponential(s []Slot, key float64, pos int) int {
	n := len(s)
	if n == 0 || math.IsNaN(key) {
		return 0
	}
	if pos < 0 {
		pos = 0
	} else if pos >= n {
		pos = n - 1
	}
	if s[pos].Key < key {
		// Target is to the right: bracket (pos+step/2, pos+step].
		step := 1
		lo, hi := pos+1, pos+1
		for hi < n && s[hi].Key < key {
			lo = hi + 1
			step <<= 1
			hi = pos + step
			if hi >= n {
				hi = n
				break
			}
		}
		if hi < n && s[hi].Key >= key {
			hi++ // s[hi] may itself be the lower bound
		}
		return lowerBound(s, key, lo, hi)
	}
	// s[pos].Key >= key: target is at pos or to the left.
	step := 1
	lo, hi := pos, pos
	for lo > 0 && s[lo].Key >= key {
		hi = lo
		step <<= 1
		lo = pos - step
		if lo < 0 {
			lo = 0
			break
		}
	}
	return lowerBound(s, key, lo, hi+1)
}
