package gapped

import (
	"math"
	"sync/atomic"
)

// This file holds every exported writer of an Array. The tree publishes
// its leaves behind atomic pointers, and the writers split by
// reallocation, not by operation: value-only mutations (gap claims,
// shifts, payload overwrites, occupancy flips) happen in place on the
// current array — lock-free readers tolerate them under the seqlock of
// version.go because every torn read is a single-word value, never a
// pointer — while any path that would reallocate the backing arrays
// (expand, contract, retrain, merge rebuild) instead builds a fresh
// Array off to the side and returns it for the caller to publish with
// one atomic store. A nil repl return means the receiver was mutated in
// place and remains the live array.
//
// Snapshots freeze arrays instead of copying them: Seal promises that
// an array will never be mutated again, and the writer honors the
// promise by calling CloneForWrite before its first mutation of a
// sealed array, leaving the original frozen for every snapshot that
// sealed it. Snapshot creation is therefore O(#leaves) flag stores, and
// the copy cost is paid lazily, only for arrays actually written while
// a snapshot is live.

// Seal freezes the array: after Seal returns, no mutation may touch its
// slots — writers must clone first (see CloneForWrite). Sealing is
// idempotent. It must be called with writers excluded (the snapshot
// code paths hold the shard/index locks), but may overlap lock-free
// readers, which never consult the flag.
func (a *Array) Seal() { atomic.StoreUint32(&a.sealed, 1) }

// Sealed reports whether the array was frozen by a snapshot. The writer
// checks it before every mutation of a published leaf.
func (a *Array) Sealed() bool { return atomic.LoadUint32(&a.sealed) != 0 }

// CloneForWrite returns an unsealed, independently mutable deep copy of
// the array: the slot array and the occupancy bitmap's words are
// duplicated (the bitmap is held by value, so the struct copy alone
// would share its words); the model, error bounds, work counters and
// configuration carry over by value. The receiver is left untouched.
func (a *Array) CloneForWrite() *Array {
	r := new(Array)
	*r = *a
	r.Slots = append([]Slot(nil), a.Slots...)
	r.Occ = a.Occ.Clone()
	//alexvet:ignore r is a private replica no reader has seen yet; the plain store happens-before its publication
	r.sealed = 0
	return r
}

// Update overwrites the payload of an existing key in place.
func (a *Array) Update(key float64, payload uint64) bool {
	if i := a.find(key); i >= 0 {
		a.beginWrite()
		a.setPayload(i, payload)
		a.endWrite()
		return true
	}
	return false
}

// rebuilt returns a fresh array holding the sorted keys at capacity
// with a retrained model (see build). The configuration and work
// counters carry over so the republication is invisible in the stats;
// the rebuild itself counts one retrain.
func (a *Array) rebuilt(keys []float64, payloads []uint64, capacity int) *Array {
	r := &Array{Stats: a.Stats, cfg: a.cfg}
	r.build(keys, payloads, capacity)
	r.Stats.Retrains++
	return r
}

// rebuiltAt is rebuilt over the receiver's own elements.
func (a *Array) rebuiltAt(capacity int) *Array {
	keys, payloads := a.Collect(nil, nil)
	return a.rebuilt(keys, payloads, capacity)
}

// expanded grows the array by 1/d and redistributes every element
// model-based (Algorithm 3), restoring density to about d².
func (a *Array) expanded() *Array {
	newCap := int(math.Ceil(float64(a.Cap()) / a.cfg.Density))
	if newCap <= a.Cap() {
		newCap = a.Cap() + 1
	}
	r := a.rebuiltAt(newCap)
	r.Stats.Expands++
	return r
}

// contracted returns the array rebuilt at density d² when deletes have
// left it below d²/4 (§3.2: "nodes can also contract upon deletes, and
// the models are retrained in the same way"), and nil otherwise.
func (a *Array) contracted() *Array {
	if a.Cap() <= minCapacity || a.Density() >= a.cfg.Density*a.cfg.Density/4 {
		return nil
	}
	r := a.RetrainCOW()
	r.Stats.Contracts++
	return r
}

// InsertCOW adds key with payload, expanding first if the insert would
// cross the density limit (Algorithm 1). It reports whether a new
// element was added; inserting an existing key overwrites its payload
// and reports false.
//
// The density check runs before the key is looked up, so overwriting a
// stored key in an array at its limit also pays the expansion — an
// O(n) rebuild that a new key would have needed anyway. The order is
// kept because the array sizes it produces are what leaf capacity and
// bytes_per_key are measured at.
func (a *Array) InsertCOW(key float64, payload uint64) (repl *Array, inserted bool) {
	if math.IsNaN(key) || math.IsInf(key, 0) {
		panic("gapped: key must be finite")
	}
	cur := a
	if float64(a.NumKeys+1) > a.cfg.Density*float64(a.Cap()) {
		repl = a.expanded()
		cur = repl
	}
	return repl, cur.placeModelBased(key, payload)
}

// DeleteCOW removes key and reports whether it was present. The removal
// itself is a value-only in-place mutation; only the contraction
// rebuild is COW.
func (a *Array) DeleteCOW(key float64) (repl *Array, deleted bool) {
	if !a.removeKey(key) {
		return nil, false
	}
	return a.contracted(), true
}

// RetrainCOW rebuilds the array at the bulk-load capacity (density d²)
// with a fresh model — the §4 cost-model action the tree takes when the
// array's prediction-error bound says searches have drifted (see
// RetrainAdvised). It is exactly the rebuild an expansion performs,
// minus the growth, and never touches the receiver.
func (a *Array) RetrainCOW() *Array {
	return a.rebuiltAt(a.initialCapacity(a.NumKeys))
}

// MergeSortedCOW bulk-merges a non-decreasing batch into a fresh array:
// the existing elements and the batch are merged into one sorted run
// and rebuilt at the bulk-load capacity (density d²) with a single
// retrain, exactly as NewFromSorted would build it. It returns the
// number of keys that were not already present and never touches the
// receiver.
func (a *Array) MergeSortedCOW(keys []float64, payloads []uint64) (repl *Array, added int) {
	checkFiniteBatch(keys)
	mk, mp, added := a.mergeSorted(keys, payloads)
	r := a.rebuilt(mk, mp, a.initialCapacity(len(mk)))
	if r.Cap() > a.Cap() {
		r.Stats.Expands++
	} else if r.Cap() < a.Cap() {
		r.Stats.Contracts++
	}
	r.Stats.Inserts += uint64(added)
	return r, added
}

// InsertSortedBatchCOW adds a non-decreasing batch of keys, reporting
// how many were new (existing keys have their payloads overwritten).
// The expansion decision is made once for the whole batch: a batch that
// would cross the density limit is merged with one rebuild — one
// retrain and one model-based placement pass — instead of one expansion
// per crossing, and a batch that fits is placed in place element by
// element, every one of them finding a gap.
func (a *Array) InsertSortedBatchCOW(keys []float64, payloads []uint64) (repl *Array, added int) {
	if len(keys) == 0 {
		return nil, 0
	}
	checkFiniteBatch(keys)
	if float64(a.NumKeys+len(keys)) > a.cfg.Density*float64(a.Cap()) {
		return a.MergeSortedCOW(keys, payloads)
	}
	for i := range keys {
		if a.placeModelBased(keys[i], payloads[i]) {
			added++
		}
	}
	return nil, added
}

// DeleteSortedBatchCOW removes a non-decreasing batch of keys in place,
// reporting how many were present. The contraction decision is made
// once per batch rather than once per key.
func (a *Array) DeleteSortedBatchCOW(keys []float64) (repl *Array, deleted int) {
	for _, k := range keys {
		if a.removeKey(k) {
			deleted++
		}
	}
	if deleted > 0 {
		repl = a.contracted()
	}
	return repl, deleted
}

// mergeSorted merges a non-decreasing batch with the array's current
// elements into fresh sorted slices, without touching the array. A
// batch key equal to an existing key overwrites its payload; within the
// batch the last occurrence of a duplicated key wins. added is the
// number of batch keys that were not already present.
func (a *Array) mergeSorted(keys []float64, payloads []uint64) (mk []float64, mp []uint64, added int) {
	ek, ep := a.Collect(nil, nil)
	mk = make([]float64, 0, len(ek)+len(keys))
	mp = make([]uint64, 0, len(ek)+len(keys))
	i, j := 0, 0
	for i < len(ek) && j < len(keys) {
		// Collapse an intra-batch duplicate run to its last occurrence.
		for j+1 < len(keys) && keys[j+1] == keys[j] {
			j++
		}
		switch {
		case ek[i] < keys[j]:
			mk = append(mk, ek[i])
			mp = append(mp, ep[i])
			i++
		case ek[i] > keys[j]:
			mk = append(mk, keys[j])
			mp = append(mp, payloads[j])
			j++
			added++
		default:
			mk = append(mk, keys[j])
			mp = append(mp, payloads[j])
			i++
			j++
		}
	}
	mk = append(mk, ek[i:]...)
	mp = append(mp, ep[i:]...)
	for j < len(keys) {
		for j+1 < len(keys) && keys[j+1] == keys[j] {
			j++
		}
		mk = append(mk, keys[j])
		mp = append(mp, payloads[j])
		j++
		added++
	}
	return mk, mp, added
}

// checkFiniteBatch guards the batch writers the way InsertCOW guards its
// single key.
func checkFiniteBatch(keys []float64) {
	for _, k := range keys {
		if math.IsNaN(k) || math.IsInf(k, 0) {
			panic("gapped: key must be finite")
		}
	}
}
