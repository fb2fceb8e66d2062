package gapped

import (
	"math"

	"repro/internal/leafbase"
)

// This file holds the copy-on-write variants of the mutating
// operations, used by the tree layer for nodes published behind atomic
// pointers. The split is by reallocation, not by operation: value-only
// mutations (gap claims, shifts, payload overwrites, occupancy flips)
// happen in place on the current array — lock-free readers tolerate
// them under the seqlock protocol because every torn read is a
// single-word value, never a pointer — while any path that would
// reallocate the backing arrays (expand, contract, retrain, merge
// rebuild) instead builds a fresh Array off to the side and returns it
// for the caller to publish with one atomic store. A nil repl return
// means the receiver was mutated in place and remains the live array.
//
// The in-place methods (Insert, Expand, Retrain, ...) are kept for
// single-threaded users and tests; an Array published to concurrent
// readers must only be touched through the COW variants.

// CloneForWrite returns an unsealed deep copy of the array, the
// copy-on-write step a writer takes before first mutating a node that a
// snapshot has sealed (leafbase.Seal).
func (a *Array) CloneForWrite() *Array {
	r := &Array{cfg: a.cfg}
	a.Base.CloneInto(&r.Base)
	return r
}

// rebuiltCopy builds a fresh array holding the receiver's current
// elements at the given capacity, with a retrained model — the COW
// counterpart of RebuildModelBased. Work counters carry over so the
// republication is invisible in the stats; the rebuild itself counts a
// retrain, exactly as the in-place path would.
func (a *Array) rebuiltCopy(capacity int) *Array {
	r := &Array{cfg: a.cfg}
	r.Stats = a.Stats
	keys, payloads := a.Collect(nil, nil)
	r.Base.BuildFromSorted(keys, payloads, capacity)
	r.Stats.Retrains++
	return r
}

// expandedCopy is Expand applied to a fresh copy: grow by 1/d and
// redistribute model-based, without touching the receiver.
func (a *Array) expandedCopy() *Array {
	newCap := int(math.Ceil(float64(a.Cap()) / a.cfg.Density))
	if newCap <= a.Cap() {
		newCap = a.Cap() + 1
	}
	r := a.rebuiltCopy(newCap)
	r.Stats.Expands++
	return r
}

// InsertCOW is Insert for a published node. It mirrors Insert's
// decision sequence exactly — including expanding for a key that turns
// out to be a duplicate — so the COW path reaches the same end state
// and the same stats as the in-place path.
func (a *Array) InsertCOW(key float64, payload uint64) (repl *Array, inserted bool) {
	if math.IsNaN(key) || math.IsInf(key, 0) {
		panic("gapped: key must be finite")
	}
	cur := a
	if float64(a.NumKeys+1) > a.cfg.Density*float64(a.Cap()) {
		repl = a.expandedCopy()
		cur = repl
	}
	switch cur.PlaceModelBased(key, payload) {
	case leafbase.Inserted:
		return repl, true
	case leafbase.Duplicate:
		return repl, false
	default:
		// Full despite the density check (tiny nodes, or a fully packed
		// region with no usable gap): rebuild expanded and place there.
		repl = cur.expandedCopy()
		if repl.PlaceModelBased(key, payload) == leafbase.NeedRoom {
			panic("gapped: insert failed after expansion")
		}
		return repl, true
	}
}

// DeleteCOW is Delete for a published node: the removal itself is a
// value-only in-place mutation; only the contraction rebuild is COW.
func (a *Array) DeleteCOW(key float64) (repl *Array, deleted bool) {
	if !a.Base.Delete(key) {
		return nil, false
	}
	if a.Cap() > minCapacity && a.Density() < a.cfg.LowDensity {
		repl = a.rebuiltCopy(a.initialCapacity(a.NumKeys))
		repl.Stats.Contracts++
	}
	return repl, true
}

// RetrainCOW is Retrain for a published node: the fresh-model rebuild
// at bulk-load capacity, built off to the side.
func (a *Array) RetrainCOW() *Array {
	return a.rebuiltCopy(a.initialCapacity(a.NumKeys))
}

// MergeSortedCOW is MergeSorted for a published node. Base.MergeSorted
// is pure (it merges into fresh slices), so the whole operation never
// touches the receiver.
func (a *Array) MergeSortedCOW(keys []float64, payloads []uint64) (repl *Array, added int) {
	checkFiniteBatch(keys)
	mk, mp, added := a.Base.MergeSorted(keys, payloads)
	r := &Array{cfg: a.cfg}
	r.Stats = a.Stats
	newCap := a.initialCapacity(len(mk))
	if newCap > a.Cap() {
		r.Stats.Expands++
	} else if newCap < a.Cap() {
		r.Stats.Contracts++
	}
	r.Base.BuildFromSorted(mk, mp, newCap)
	r.Stats.Retrains++
	r.Stats.Inserts += uint64(added)
	return r, added
}

// InsertSortedBatchCOW is InsertSortedBatch for a published node. When
// a mid-batch expansion is needed, the remainder of the batch continues
// on the (not yet published) expanded copy.
func (a *Array) InsertSortedBatchCOW(keys []float64, payloads []uint64) (repl *Array, added int) {
	if len(keys) == 0 {
		return nil, 0
	}
	checkFiniteBatch(keys)
	if float64(a.NumKeys+len(keys)) > a.cfg.Density*float64(a.Cap()) {
		return a.MergeSortedCOW(keys, payloads)
	}
	cur := a
	n := 0
	for i := range keys {
		switch cur.PlaceModelBased(keys[i], payloads[i]) {
		case leafbase.Inserted:
			n++
		case leafbase.Duplicate:
		default:
			repl = cur.expandedCopy()
			cur = repl
			if cur.PlaceModelBased(keys[i], payloads[i]) == leafbase.NeedRoom {
				panic("gapped: insert failed after expansion")
			}
			n++
		}
	}
	return repl, n
}

// DeleteSortedBatchCOW is DeleteSortedBatch for a published node:
// in-place removals, one COW contraction decision per batch.
func (a *Array) DeleteSortedBatchCOW(keys []float64) (repl *Array, deleted int) {
	n := a.DeleteSortedNoRepack(keys)
	if n > 0 && a.Cap() > minCapacity && a.Density() < a.cfg.LowDensity {
		repl = a.rebuiltCopy(a.initialCapacity(a.NumKeys))
		repl.Stats.Contracts++
	}
	return repl, n
}
