package gapped

import "math"

// This file holds the value-only writes of one array: a model-based
// insert (a gap claim or a shift), a payload overwrite and a key
// removal. Each changes slot values in place under the seqlock of
// version.go and never reallocates; the writers of cow.go call them
// once the density policy has made sure the array has room.

// noteInsertErr widens the error bound after placing key at slot when
// the model predicted pred. Callers pass slots already clamped into the
// array.
func (a *Array) noteInsertErr(slot, pred int) {
	e := slot - pred
	if e < 0 {
		e = -e
	}
	if e > a.ErrBound {
		a.ErrBound = e
	}
}

// setPayload overwrites the payload of the element in occupied slot occ
// and of the gap run left of it, whose fills duplicate the element: the
// run is exactly the slots left of occ that hold its key. Callers hold
// Ver odd.
func (a *Array) setPayload(occ int, payload uint64) {
	s := a.Slots
	key := s[occ].Key
	for i := occ; i >= 0 && s[i].Key == key; i-- {
		s[i].Payload = payload
	}
}

// placeModelBased implements the shared insert path of Algorithms 1-3:
// locate the valid insertion range for key by exponential search from the
// model prediction, then
//
//   - overwrite the payload if the key exists, reporting false;
//   - if the range contains a gap, claim the gap closest to the predicted
//     position and repair gap fills;
//   - otherwise create a gap by shifting toward the closest gap.
//
// It reports whether a new element was added. The array must have a
// gap; the density policy of the callers guarantees one, and a full
// array panics.
func (a *Array) placeModelBased(key float64, payload uint64) bool {
	cap := len(a.Slots)
	lo := a.lowerBoundSlot(key)
	if lo < cap && a.Slots[lo].Key == key {
		if occ := a.Occ.NextSet(lo); occ >= 0 {
			a.beginWrite()
			a.setPayload(occ, payload)
			a.endWrite()
			return false
		}
	}
	if a.NumKeys >= cap {
		panic("gapped: insert into a full array")
	}

	// The valid placement range is [lo, firstOcc-1] where firstOcc is the
	// first occupied slot at or after lo (its key is > key). It is empty
	// when lo is occupied or past the end: a key greater than every
	// value, trailing fills included, lands there when the last slot is
	// occupied.
	hi := cap - 1
	if lo < cap {
		if firstOcc := a.Occ.NextSet(lo); firstOcc >= 0 {
			hi = firstOcc - 1
		}
	}

	if lo <= hi {
		// There is at least one gap in range; claim the one nearest the
		// model's prediction so later lookups hit directly (§3.2,
		// "model-based insertion").
		pred := a.predictSlot(key)
		q := pred
		if q < lo {
			q = lo
		} else if q > hi {
			q = hi
		}
		a.beginWrite()
		// The claimed slot and the gaps left of it in range now duplicate
		// the new element; the gaps right of it still duplicate firstOcc.
		// No gap left of lo needs repair: lo is the lower bound, so slot
		// lo-1 (if any) holds a smaller key and is therefore occupied.
		fill := a.Slots[lo : q+1]
		for i := range fill {
			fill[i] = Slot{key, payload}
		}
		a.Occ.Set(q)
		a.NumKeys++
		a.Stats.Inserts++
		a.sinceRebuild++
		if a.HasModel {
			// Nothing else moved: only the new key's error can widen the
			// bound, by however far the clamp pushed it off its
			// prediction.
			a.noteInsertErr(q, pred)
		}
		a.endWrite()
		return true
	}

	// lo is occupied (or past the end): make a gap by shifting toward the
	// closest gap.
	a.beginWrite()
	a.insertWithShift(key, payload, lo)
	a.endWrite()
	return true
}

// insertWithShift creates a gap at the lower-bound position lo by shifting
// elements toward the nearest gap. The node must have at least one gap.
func (a *Array) insertWithShift(key float64, payload uint64, lo int) {
	gapL, gapR := -1, -1
	if lo > 0 {
		gapL = a.Occ.PrevClear(lo - 1)
	}
	if lo < len(a.Slots) {
		gapR = a.Occ.NextClear(lo)
	}
	// Whole slots move, so no fill needs repair: the slot left of the
	// lower bound lo is occupied (a gap there would duplicate a key >=
	// key), and the gaps left of a left shift's gapL duplicated the
	// element at gapL+1, which moves into gapL.
	s := a.Slots
	var at, runLo, runHi int
	switch {
	case gapR >= 0 && (gapL < 0 || gapR-lo <= lo-gapL):
		// Shift [lo, gapR-1] right by one; insert at lo.
		copy(s[lo+1:gapR+1], s[lo:gapR])
		a.Occ.Set(gapR)
		s[lo] = Slot{key, payload}
		at, runLo, runHi = lo, lo+1, gapR
		a.Stats.Shifts += uint64(gapR - lo)
	default:
		// Shift [gapL+1, lo-1] left by one; insert at lo-1.
		copy(s[gapL:lo-1], s[gapL+1:lo])
		a.Occ.Set(gapL)
		s[lo-1] = Slot{key, payload}
		at, runLo, runHi = lo-1, gapL, lo-2
		a.Stats.Shifts += uint64(lo - 1 - gapL)
	}
	a.NumKeys++
	a.Stats.Inserts++
	a.sinceRebuild++
	if a.HasModel {
		// The new key's error, plus exact re-predictions of the shifted
		// run: same O(shift) as the copy above, and far tighter than the
		// sound-but-useless alternative of bumping the bound by one per
		// shifting insert, which would disqualify every leaf from
		// bounded search within a few thousand inserts of a rebuild.
		// Elements outside the run did not move, so the old bound still
		// covers them.
		a.noteInsertErr(at, a.predictFast(key))
		a.noteRunErr(runLo, runHi)
	}
}

// noteRunErr folds the exact prediction errors of the occupied slots in
// [lo, hi] into the bound; callers pass the slot range a shift just
// re-placed.
func (a *Array) noteRunErr(lo, hi int) {
	for i := a.Occ.NextSet(lo); i >= 0 && i <= hi; i = a.Occ.NextSet(i + 1) {
		a.noteInsertErr(i, a.predictFast(a.Slots[i].Key))
	}
}

// removeKey removes key, repairs the gap fills of the run ending at its
// slot, and returns whether the key was present. It never contracts;
// the writers of cow.go apply the contraction policy.
func (a *Array) removeKey(key float64) bool {
	occ := a.find(key)
	if occ < 0 {
		return false
	}
	a.beginWrite()
	a.Occ.Clear(occ)
	// The slot and any gaps immediately to its left must now duplicate
	// the next occupied slot to the right (or {+Inf, 0} at the tail).
	fill := Slot{Key: math.Inf(1)}
	if n := a.Occ.NextSet(occ + 1); n >= 0 {
		fill = a.Slots[n]
	}
	for i := occ; i >= 0 && !a.Occ.Test(i); i-- {
		a.Slots[i] = fill
	}
	a.endWrite()
	a.NumKeys--
	a.Stats.Deletes++
	return true
}
