package gapped

import (
	"math"

	"repro/internal/leafbase"
)

// InsertSortedBatch adds a non-decreasing batch of keys in one pass,
// reporting how many were new (existing keys have their payloads
// overwritten). The expansion decision is made once for the whole
// batch: a batch that would cross the density limit triggers a single
// merge rebuild — one retrain and one model-based placement pass —
// instead of one expansion per crossing, and a batch that fits is
// placed element by element with no density checks at all.
func (a *Array) InsertSortedBatch(keys []float64, payloads []uint64) int {
	if len(keys) == 0 {
		return 0
	}
	checkFiniteBatch(keys)
	if float64(a.NumKeys+len(keys)) > a.cfg.Density*float64(a.Cap()) {
		return a.MergeSorted(keys, payloads)
	}
	n := 0
	for i := range keys {
		switch a.PlaceModelBased(keys[i], payloads[i]) {
		case leafbase.Inserted:
			n++
		case leafbase.Duplicate:
		default:
			// Below the density limit yet out of usable gaps (a fully
			// packed region, Fig 3): expand once and retry, failing as
			// loudly as the single-key path would.
			a.Expand()
			if a.PlaceModelBased(keys[i], payloads[i]) == leafbase.NeedRoom {
				panic("gapped: insert failed after expansion")
			}
			n++
		}
	}
	return n
}

// MergeSorted bulk-merges a non-decreasing batch into the node: the
// existing elements and the batch are merged into one sorted run and
// the node is rebuilt at the bulk-load capacity (density d²) with a
// single retrain, exactly as NewFromSorted would build it. It returns
// the number of keys that were not already present.
func (a *Array) MergeSorted(keys []float64, payloads []uint64) int {
	checkFiniteBatch(keys)
	mk, mp, added := a.Base.MergeSorted(keys, payloads)
	newCap := a.initialCapacity(len(mk))
	if newCap > a.Cap() {
		a.Stats.Expands++
	} else if newCap < a.Cap() {
		a.Stats.Contracts++
	}
	a.Base.BuildFromSorted(mk, mp, newCap)
	a.Stats.Retrains++
	a.Stats.Inserts += uint64(added)
	return added
}

// DeleteSortedBatch removes a non-decreasing batch of keys, reporting
// how many were present. The contraction decision is made once per
// batch rather than once per key.
func (a *Array) DeleteSortedBatch(keys []float64) int {
	n := a.DeleteSortedNoRepack(keys)
	if n > 0 && a.Cap() > minCapacity && a.Density() < a.cfg.LowDensity {
		a.Stats.Contracts++
		a.RebuildModelBased(a.initialCapacity(a.NumKeys))
	}
	return n
}

// checkFiniteBatch guards batch entry points the way Insert guards its
// single key.
func checkFiniteBatch(keys []float64) {
	for _, k := range keys {
		if math.IsNaN(k) || math.IsInf(k, 0) {
			panic("gapped: key must be finite")
		}
	}
}
