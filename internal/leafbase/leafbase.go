// Package leafbase implements the storage core of ALEX's data node, the
// Gapped Array of §3.3.1:
//
//   - one array of {key, payload} slots with gaps, where every gap
//     duplicates the whole slot — key and payload — of the closest
//     occupied slot to its right (trailing gaps hold {+Inf, 0}), so the
//     keys are always non-decreasing, exponential search works without
//     consulting the bitmap, and any slot whose key equals a stored key
//     holds that key's payload: a point read touches the slot array only;
//   - an occupancy bitmap distinguishing real elements from gaps
//     (§5.2.3), which writes, scans and the writer-side Find consult;
//   - a per-node linear model with model-based inserts, lookups by
//     exponential search from the predicted position (Alg 3), and
//     model-based re-insertion during node rebuilds;
//   - gap-making by shifting toward the closest gap (Alg 1), with shift
//     accounting for the Fig 8 experiment.
//
// The gapped array (internal/gapped) embeds Base and supplies the
// growth policy: it grows by 1/d when its density d is reached and
// contracts when deletes leave it sparse. The paper's second layout,
// the Packed Memory Array (§3.3.2), is not implemented; see
// docs/design-decisions.md.
package leafbase

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bitmapx"
	"repro/internal/linmodel"
)

// Stats counts the work a data node performs, in units the paper reports:
// Shifts is the number of element moves caused by inserts (Fig 8),
// Expands counts node expansions, Retrains counts model rebuilds of an
// existing node (expand, contract, cost-model retrain, merge rebuild) —
// building a fresh node at bulk load, split or recovery is not one.
type Stats struct {
	Shifts    uint64
	Expands   uint64
	Contracts uint64
	Retrains  uint64
	Inserts   uint64
	Deletes   uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other *Stats) {
	s.Shifts += other.Shifts
	s.Expands += other.Expands
	s.Contracts += other.Contracts
	s.Retrains += other.Retrains
	s.Inserts += other.Inserts
	s.Deletes += other.Deletes
}

// MinModelKeys is the cold-start threshold of §3.3.3: nodes with fewer
// keys do not maintain a model and serve lookups with plain binary
// search, exactly like a B+Tree node.
const MinModelKeys = 16

// BoundedSearchMaxErr is the largest per-leaf prediction-error bound
// for which the point probes use the bounded window search instead of
// exponential bracketing. The §4 cost model prices the strategies in
// expected work per probe: the bounded path resolves a miss with e+1
// *independent* branch-free compares in a one-sided window around the
// prediction (the direct-hit compare already fixed the direction), so
// the out-of-order core runs it at full width with no mispredictable
// bracket loop and no serial load chain; exponential costs ~2*log2(err)
// probes, half of them data-dependent branches, but adapts to the
// actual per-key error. Small bounds therefore favor the fixed window,
// large bounds the adaptive bracketing; 16 (a 17-slot window, 1-2 cache
// lines) is the measured crossover on the CI container.
const BoundedSearchMaxErr = 16

// costRetrainSlack is the absolute drift allowance of the §4
// cost-model feedback: a retrain is only advised once the bound has
// grown past both this slack and twice the bound a fresh model
// achieved at the last rebuild (see RetrainAdvised), so the trigger
// measures *drift a retrain can recover*, not intrinsic model error.
const costRetrainSlack = 4 * BoundedSearchMaxErr

// boundedMax is the effective ErrBound ceiling for the bounded-search
// fast path. It is BoundedSearchMaxErr normally and -1 when bounded
// search is disabled, so the probe-time strategy pick stays a single
// integer compare with no extra enabled-flag branch.
var boundedMax = BoundedSearchMaxErr

// SetBoundedSearch toggles the error-bound-driven bounded-search fast
// path (default on). Benchmarks flip it to measure bounded vs
// exponential search on identical trees; it is not synchronized and
// must not be toggled while the index is in use.
func SetBoundedSearch(on bool) {
	if on {
		boundedMax = BoundedSearchMaxErr
	} else {
		boundedMax = -1
	}
}

// Slot is one position of a data node's array: an element, or a gap
// holding a copy of the closest element to its right ({+Inf, 0} when
// there is none). Key and payload share the slot so a hit costs one
// cache line, not one in a key array and another in a payload array.
type Slot struct {
	Key     float64
	Payload uint64
}

// Base is the storage core of a data node. It is not safe for concurrent
// use; like the system evaluated in the paper, the index is single-writer.
type Base struct {
	// Ver is the node's seqlock word: odd while a writer changes the
	// slots of this array in place, even otherwise, advanced by two per
	// in-place write (see version.go). A plain word accessed only
	// through sync/atomic functions, so Base stays copyable; the
	// annotation makes alexvet enforce that in every package.
	//alex:atomic
	Ver uint64

	// Slots has len == capacity; every gap is a copy of the nearest
	// occupied slot to its right, key and payload (the fill rule).
	Slots []Slot
	// Occ marks the occupied slots. It is held by value: one allocation
	// and one dependent load fewer than a pointer on every write.
	Occ     bitmapx.Bitmap
	Model   linmodel.Model
	NumKeys int
	Stats   Stats

	// capF caches float64(len(Slots)) so the hot predict path clamps the
	// model output entirely in float registers: one FMA for the model,
	// two float compares for the clamp, one conversion for the result —
	// no per-lookup int→float conversion of the capacity. Maintained by
	// Init alongside every (re)allocation of Slots.
	capF float64

	// ErrBound is an upper bound on |occupied slot - predicted slot|
	// over every stored key — the per-leaf expected-prediction-error
	// signal of the paper's §4 cost model, maintained incrementally
	// (the "modular materialisation" framing: updated in place on every
	// mutation, recomputed exactly only when a rebuild retrains the
	// model anyway). It is exact after BuildFromSorted and widens
	// monotonically between rebuilds: a gap-claim insert folds in the
	// new key's error, a shift insert re-predicts exactly the slots the
	// shift moved (an O(shift) pass riding on the O(shift) copy), and
	// deletes leave positions — and so the bound — untouched. Probes use
	// it to pick their search strategy (see Find) and the tree's cost model reads it through
	// ErrorBound/RetrainAdvised. Meaningful only while HasModel.
	ErrBound int

	// rebuildErr is ErrBound as computed by the last BuildFromSorted —
	// the error a fresh model achieves on this node's data.
	// RetrainAdvised compares the current bound against it so that only
	// drift a retrain can actually recover triggers one; a node whose
	// data is inherently hard to fit has a large rebuildErr and is left
	// to exponential search instead of futile O(n) rebuilds.
	rebuildErr int

	// sinceRebuild counts inserts since the last model rebuild;
	// RetrainAdvised uses it to amortize cost-model retrains so a leaf
	// cannot retrain on every insert.
	sinceRebuild int

	// sealed marks the node as frozen by a snapshot (see Seal). It is a
	// plain word accessed with sync/atomic functions rather than an
	// atomic.Uint32 so Base stays trivially copyable (CloneInto and the
	// COW rebuilds assign whole Base values); the flag is only ever
	// written under the index's writer exclusion, the atomics exist so
	// the store in Seal and the load in Sealed are data-race-free when
	// snapshot creation overlaps lock-free readers. The annotation
	// below makes alexvet enforce atomic-only access mechanically.
	//alex:atomic
	sealed uint32

	// HasModel sits last so the bool packs into sealed's word instead
	// of costing a padded slot of its own (fieldalign: 184 -> 176).
	HasModel bool
}

// Init sets up an empty node with the given capacity.
func (b *Base) Init(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	b.Slots = make([]Slot, capacity)
	for i := range b.Slots {
		b.Slots[i].Key = math.Inf(1)
	}
	b.Occ = bitmapx.New(capacity)
	b.Model = linmodel.Model{}
	b.HasModel = false
	b.NumKeys = 0
	b.capF = float64(capacity)
	b.ErrBound = 0
	b.rebuildErr = 0
	b.sinceRebuild = 0
}

// Cap returns the slot capacity of the node.
func (b *Base) Cap() int { return len(b.Slots) }

// BaseStats returns the node's work counters.
func (b *Base) BaseStats() *Stats { return &b.Stats }

// Num returns the number of real elements.
func (b *Base) Num() int { return b.NumKeys }

// Density returns NumKeys / capacity.
func (b *Base) Density() float64 {
	if len(b.Slots) == 0 {
		return 0
	}
	return float64(b.NumKeys) / float64(len(b.Slots))
}

// predictFast is the hot-path slot prediction: the model's FMA clamped
// into [0, cap) without leaving float registers until the final
// conversion. Callers must ensure HasModel; the cold-start regime goes
// through predictSlot.
//
// The final integer clamp re-checks against len(Slots) even though a
// consistent node always has capF == len(Slots): the read path must
// degrade to a wrong-but-in-bounds slot on any state an optimistic
// reader (see the root package's seqlock protocol) can observe — whose
// result the sequence validation then discards — never to an index
// panic.
func (b *Base) predictFast(key float64) int {
	p := math.Floor(b.Model.Slope*key + b.Model.Intercept)
	if !(p > 0) { // negative, -0, or NaN
		return 0
	}
	i := len(b.Slots) - 1
	if p < b.capF {
		if j := int(p); j < i {
			i = j
		}
	}
	return i
}

// predictSlot returns the model's predicted slot for key, or a plain
// lower-bound position when the node is in its cold-start (model-less)
// regime.
func (b *Base) predictSlot(key float64) int {
	if !b.HasModel {
		return lowerBound(b.Slots, key, 0, len(b.Slots))
	}
	return b.predictFast(key)
}

// LowerBoundSlot returns the first slot (gap or element) whose key value
// is >= key, locating it by exponential search from the model prediction.
func (b *Base) LowerBoundSlot(key float64) int {
	if !b.HasModel {
		return lowerBound(b.Slots, key, 0, len(b.Slots))
	}
	return exponential(b.Slots, key, b.predictFast(key))
}

// probe returns a slot that holds key when key is stored; for an absent
// key the slot it returns, if it is in range at all, holds another key.
// Lookup and Find share it.
//
// The common case pays one model FMA and one key comparison: model-based
// insertion places elements at (or next to) their predicted slots, so
// the prediction usually lands exactly on the key — or on one of the gap
// fills duplicating it. Only a miss searches, and the leaf's error bound
// picks the strategy (§4 cost model): a bound that fits the bounded
// window resolves the probe with a handful of *independent* branch-free
// compares around the prediction — no bracketing loop, no serial
// dependency chain — while a high-error leaf keeps exponential search,
// whose cost scales with log(error) rather than log(node).
//
// Bounded search is exact here even though ErrBound only covers stored
// keys: for a stored key the occupied slot s satisfies |s - pos| <=
// ErrBound, and the gap fills left of s duplicate it, so the window's
// lower bound lands on a slot holding the key. For an absent key the
// window result may not be the true lower bound, but its slot can never
// *equal* the key (fills only duplicate stored keys), so the caller's
// equality check reports the miss exactly as the exponential path
// would. The direct-hit compare already established which side of pos
// the key is on, so the window is one-sided: e+1 slots, not 2e+1. (k <
// key is false for a NaN key, and the left window then misses.)
func (b *Base) probe(key float64) int {
	if !b.HasModel {
		return lowerBound(b.Slots, key, 0, len(b.Slots))
	}
	pos := b.predictFast(key)
	k := b.Slots[pos].Key
	switch e := b.ErrBound; {
	case k == key:
		return pos // direct hit: the element, or a fill duplicating it
	case e > boundedMax:
		return exponential(b.Slots, key, pos)
	case k < key:
		return lowerBoundLinear(b.Slots, key, pos+1, pos+e+1)
	default:
		return lowerBoundLinear(b.Slots, key, pos-e, pos+1)
	}
}

// Lookup returns the payload stored for key. It reads the slot array
// only: by the fill rule a slot whose key equals a stored key holds that
// key's payload, whether it is the element or a gap left of it. Stored
// keys are finite, so the +Inf test keeps a probe for +Inf off the tail
// fills. The one unsigned bound check makes a probe of any state an
// optimistic reader can observe degrade to a miss, never a panic.
func (b *Base) Lookup(key float64) (uint64, bool) {
	s := b.Slots
	if i := b.probe(key); uint(i) < uint(len(s)) && s[i].Key == key && key < math.Inf(1) {
		return s[i].Payload, true
	}
	return 0, false
}

// Find returns the occupied slot holding key, or -1. It probes like
// Lookup and then walks the bitmap from the probed slot to the element
// the fill duplicates (a tail fill has none, so +Inf misses); the
// writers (Delete, Update) use it.
func (b *Base) Find(key float64) int {
	s := b.Slots
	if i := b.probe(key); uint(i) < uint(len(s)) && s[i].Key == key {
		return b.Occ.NextSet(i)
	}
	return -1
}

// PredictionError returns |predicted slot - actual slot| for an existing
// key (Fig 7). ok is false when the key is absent.
func (b *Base) PredictionError(key float64) (int, bool) {
	occ := b.Find(key)
	if occ < 0 {
		return 0, false
	}
	pred := b.predictSlot(key)
	if pred > occ {
		return pred - occ, true
	}
	return occ - pred, true
}

// ErrorBound returns the node's current prediction-error bound, or -1
// for a model-less (cold start) node. The tree layer reads it for the
// split/expand cost decision and the Stats error histogram.
func (b *Base) ErrorBound() int {
	if !b.HasModel {
		return -1
	}
	return b.ErrBound
}

// RetrainAdvised reports the §4 cost-model feedback signal: the node's
// error bound (expected search work ~log2(2*ErrBound) iterations) has
// drifted well past what a fresh model achieved at the last rebuild,
// and enough inserts accumulated since then that an O(n) retrain is
// amortized. Comparing against the rebuild-time bound — rather than an
// absolute threshold — means a node whose data is inherently hard to
// fit is not rebuilt futilely, while the insert-count hysteresis keeps
// any node from retraining on every insert.
func (b *Base) RetrainAdvised() bool {
	if !b.HasModel || b.ErrBound <= 2*b.rebuildErr+costRetrainSlack {
		return false
	}
	// An O(n) rebuild every >= n/16 inserts is O(16) amortized slots of
	// work per insert — cheaper than the extra log2(e) search iterations
	// every lookup pays on a drifted leaf.
	min := b.NumKeys / 16
	if min < MinModelKeys {
		min = MinModelKeys
	}
	return b.sinceRebuild >= min
}

// noteInsertErr widens the error bound after placing key at slot when
// the model predicted pred. Callers pass slots already clamped into the
// array.
func (b *Base) noteInsertErr(slot, pred int) {
	e := slot - pred
	if e < 0 {
		e = -e
	}
	if e > b.ErrBound {
		b.ErrBound = e
	}
}

// Update overwrites the payload of an existing key.
func (b *Base) Update(key float64, payload uint64) bool {
	if i := b.Find(key); i >= 0 {
		b.beginWrite()
		b.setPayload(i, payload)
		b.endWrite()
		return true
	}
	return false
}

// setPayload overwrites the payload of the element in occupied slot occ
// and of the gap run left of it, whose fills duplicate the element: the
// run is exactly the slots left of occ that hold its key. Callers hold
// Ver odd.
func (b *Base) setPayload(occ int, payload uint64) {
	s := b.Slots
	key := s[occ].Key
	for i := occ; i >= 0 && s[i].Key == key; i-- {
		s[i].Payload = payload
	}
}

// LowerBoundOcc returns the first occupied slot whose key is >= key, or
// -1 when no such element exists. Range scans start here.
func (b *Base) LowerBoundOcc(key float64) int {
	lo := b.LowerBoundSlot(key)
	if lo >= len(b.Slots) {
		return -1
	}
	return b.Occ.NextSet(lo)
}

// ScanFrom visits elements with key >= start in ascending key order until
// visit returns false. It reports whether visiting stopped early (visit
// returned false), so multi-node scans know when to stop.
func (b *Base) ScanFrom(start float64, visit func(key float64, payload uint64) bool) bool {
	for i := b.LowerBoundOcc(start); i >= 0; i = b.Occ.NextSet(i + 1) {
		if !visit(b.Slots[i].Key, b.Slots[i].Payload) {
			return true
		}
	}
	return false
}

// AppendFrom appends up to max elements with key >= start, in ascending
// key order, to the given slices and returns them. It is the
// callback-free sibling of ScanFrom: the tree's zero-allocation ScanNInto
// walks the leaf chain with it, so no per-call visitor closure escapes
// to the heap. Passing slices with spare capacity makes it allocation
// free.
func (b *Base) AppendFrom(start float64, max int, keys []float64, payloads []uint64) ([]float64, []uint64) {
	i := b.LowerBoundOcc(start)
	for ; i >= 0 && max > 0; i = b.Occ.NextSet(i + 1) {
		keys = append(keys, b.Slots[i].Key)
		payloads = append(payloads, b.Slots[i].Payload)
		max--
	}
	return keys, payloads
}

// NextSlot returns the first occupied slot strictly after slot, or -1.
// Pass -1 to get the first occupied slot. Iterators use it for
// callback-free traversal.
func (b *Base) NextSlot(slot int) int {
	return b.Occ.NextSet(slot + 1)
}

// At returns the key and payload stored in an occupied slot. It panics
// on a gap or out-of-range slot; callers must only pass slots obtained
// from NextSlot or LowerBoundOcc.
func (b *Base) At(slot int) (float64, uint64) {
	if !b.Occ.Test(slot) {
		panic("leafbase: At on a gap slot")
	}
	return b.Slots[slot].Key, b.Slots[slot].Payload
}

// MinKey returns the smallest stored key.
func (b *Base) MinKey() (float64, bool) {
	i := b.Occ.NextSet(0)
	if i < 0 {
		return 0, false
	}
	return b.Slots[i].Key, true
}

// MaxKey returns the largest stored key.
func (b *Base) MaxKey() (float64, bool) {
	i := b.Occ.PrevSet(len(b.Slots) - 1)
	if i < 0 {
		return 0, false
	}
	return b.Slots[i].Key, true
}

// Collect appends the node's elements in key order to the given slices
// and returns them. Passing nil slices allocates exact-size ones.
func (b *Base) Collect(keys []float64, payloads []uint64) ([]float64, []uint64) {
	if keys == nil {
		keys = make([]float64, 0, b.NumKeys)
	}
	if payloads == nil {
		payloads = make([]uint64, 0, b.NumKeys)
	}
	for i := b.Occ.NextSet(0); i >= 0; i = b.Occ.NextSet(i + 1) {
		keys = append(keys, b.Slots[i].Key)
		payloads = append(payloads, b.Slots[i].Payload)
	}
	return keys, payloads
}

// InsertResult describes the outcome of a placement attempt.
type InsertResult int

const (
	// Inserted means the key was placed.
	Inserted InsertResult = iota
	// Duplicate means the key already existed; its payload was overwritten.
	Duplicate
	// NeedRoom means the node is full.
	NeedRoom
)

// PlaceModelBased implements the shared insert path of Algorithms 1-3:
// locate the valid insertion range for key by exponential search from the
// model prediction, then
//
//   - overwrite the payload if the key exists (Duplicate);
//   - if the range contains a gap, claim the gap closest to the predicted
//     position and repair gap fills;
//   - otherwise create a gap by shifting toward the closest gap.
//
// NeedRoom is returned when the node is full.
func (b *Base) PlaceModelBased(key float64, payload uint64) InsertResult {
	cap := len(b.Slots)
	lo := b.LowerBoundSlot(key)
	if lo < cap && b.Slots[lo].Key == key {
		if occ := b.Occ.NextSet(lo); occ >= 0 {
			b.beginWrite()
			b.setPayload(occ, payload)
			b.endWrite()
			return Duplicate
		}
	}
	if b.NumKeys >= cap {
		return NeedRoom
	}
	if lo >= cap {
		// Key is greater than every value including trailing fills;
		// can only happen when there are no trailing gaps (last slot
		// occupied). Fall through to gap-making at the last slot.
		lo = cap // handled below by the shift path with hiGap == -1
	}

	// The valid placement range is [lo, firstOcc-1] where firstOcc is the
	// first occupied slot at or after lo (its key is > key).
	var hi int
	if lo < cap {
		if firstOcc := b.Occ.NextSet(lo); firstOcc < 0 {
			hi = cap - 1
		} else {
			hi = firstOcc - 1
		}
	} else {
		hi = lo - 1
	}

	if lo <= hi {
		// There is at least one gap in range; claim the one nearest the
		// model's prediction so later lookups hit directly (§3.2,
		// "model-based insertion").
		pred := b.predictSlot(key)
		q := pred
		if q < lo {
			q = lo
		} else if q > hi {
			q = hi
		}
		b.beginWrite()
		// The claimed slot and the gaps left of it in range now duplicate
		// the new element; the gaps right of it still duplicate firstOcc.
		// No gap left of lo needs repair: lo is the lower bound, so slot
		// lo-1 (if any) holds a smaller key and is therefore occupied.
		fill := b.Slots[lo : q+1]
		for i := range fill {
			fill[i] = Slot{key, payload}
		}
		b.Occ.Set(q)
		b.NumKeys++
		b.Stats.Inserts++
		b.sinceRebuild++
		if b.HasModel {
			// Nothing else moved: only the new key's error can widen the
			// bound, by however far the clamp pushed it off its
			// prediction.
			b.noteInsertErr(q, pred)
		}
		b.endWrite()
		return Inserted
	}

	// lo is occupied (or past the end): make a gap by shifting toward the
	// closest gap.
	b.beginWrite()
	b.insertWithShift(key, payload, lo)
	b.endWrite()
	return Inserted
}

// insertWithShift creates a gap at the lower-bound position lo by shifting
// elements toward the nearest gap. The node must have at least one gap.
func (b *Base) insertWithShift(key float64, payload uint64, lo int) {
	gapL, gapR := -1, -1
	if lo > 0 {
		gapL = b.Occ.PrevClear(lo - 1)
	}
	if lo < len(b.Slots) {
		gapR = b.Occ.NextClear(lo)
	}
	// Whole slots move, so no fill needs repair: the slot left of the
	// lower bound lo is occupied (a gap there would duplicate a key >=
	// key), and the gaps left of a left shift's gapL duplicated the
	// element at gapL+1, which moves into gapL.
	s := b.Slots
	var at, runLo, runHi int
	switch {
	case gapR >= 0 && (gapL < 0 || gapR-lo <= lo-gapL):
		// Shift [lo, gapR-1] right by one; insert at lo.
		copy(s[lo+1:gapR+1], s[lo:gapR])
		b.Occ.Set(gapR)
		s[lo] = Slot{key, payload}
		at, runLo, runHi = lo, lo+1, gapR
		b.Stats.Shifts += uint64(gapR - lo)
	default:
		// Shift [gapL+1, lo-1] left by one; insert at lo-1.
		copy(s[gapL:lo-1], s[gapL+1:lo])
		b.Occ.Set(gapL)
		s[lo-1] = Slot{key, payload}
		at, runLo, runHi = lo-1, gapL, lo-2
		b.Stats.Shifts += uint64(lo - 1 - gapL)
	}
	b.NumKeys++
	b.Stats.Inserts++
	b.sinceRebuild++
	if b.HasModel {
		// The new key's error, plus exact re-predictions of the shifted
		// run: same O(shift) as the copy above, and far tighter than the
		// sound-but-useless alternative of bumping the bound by one per
		// shifting insert, which would disqualify every leaf from
		// bounded search within a few thousand inserts of a rebuild.
		// Elements outside the run did not move, so the old bound still
		// covers them.
		b.noteInsertErr(at, b.predictFast(key))
		b.noteRunErr(runLo, runHi)
	}
}

// noteRunErr folds the exact prediction errors of the occupied slots in
// [lo, hi] into the bound; callers pass the slot range a shift just
// re-placed.
func (b *Base) noteRunErr(lo, hi int) {
	for i := b.Occ.NextSet(lo); i >= 0 && i <= hi; i = b.Occ.NextSet(i + 1) {
		b.noteInsertErr(i, b.predictFast(b.Slots[i].Key))
	}
}

// Delete removes key, repairs the gap fills of the run ending at its
// slot, and returns whether the key was present.
func (b *Base) Delete(key float64) bool {
	occ := b.Find(key)
	if occ < 0 {
		return false
	}
	b.beginWrite()
	b.Occ.Clear(occ)
	// The slot and any gaps immediately to its left must now duplicate
	// the next occupied slot to the right (or {+Inf, 0} at the tail).
	fill := Slot{Key: math.Inf(1)}
	if n := b.Occ.NextSet(occ + 1); n >= 0 {
		fill = b.Slots[n]
	}
	for i := occ; i >= 0 && !b.Occ.Test(i); i-- {
		b.Slots[i] = fill
	}
	b.endWrite()
	b.NumKeys--
	b.Stats.Deletes++
	return true
}

// RebuildModelBased rebuilds the node into a fresh array of newCapacity
// slots: it retrains the linear model on the current elements, scales it
// to the new capacity (Alg 3), and re-inserts every element at its
// predicted position in sorted order, falling forward to the next free
// slot on collision. Nodes below the cold-start threshold are spread
// uniformly instead and keep no model. It counts one retrain.
func (b *Base) RebuildModelBased(newCapacity int) {
	keys, payloads := b.Collect(nil, nil)
	b.BuildFromSorted(keys, payloads, newCapacity)
	b.Stats.Retrains++
}

// BuildFromSorted initializes the node from sorted unique keys with the
// given capacity, using model-based placement. It is used at bulk load,
// after expansions, and when splitting distributes keys to new leaves.
// It counts no retrain: callers that rebuild an existing node count it.
func (b *Base) BuildFromSorted(keys []float64, payloads []uint64, capacity int) {
	n := len(keys)
	if capacity < n {
		capacity = n
	}
	if capacity < 1 {
		capacity = 1
	}
	b.Init(capacity)
	if n == 0 {
		return
	}
	b.NumKeys = n

	if n >= MinModelKeys {
		b.Model = linmodel.Train(keys).Scale(float64(capacity) / float64(n))
		b.HasModel = true
	} else {
		b.Model = linmodel.Model{}
		b.HasModel = false
	}

	last := -1
	for i := 0; i < n; i++ {
		var pos, pred int
		if b.HasModel {
			pos = b.Model.PredictClamped(keys[i], capacity)
			pred = pos
		} else {
			// Cold start: spread uniformly.
			pos = i * capacity / n
		}
		if pos <= last {
			pos = last + 1
		}
		// Never let the remaining elements run out of slots.
		if maxPos := capacity - (n - i); pos > maxPos {
			pos = maxPos
		}
		b.Slots[pos] = Slot{keys[i], payloads[i]}
		b.Occ.Set(pos)
		if b.HasModel {
			// The rebuild is where the bound is exact, for free: the
			// prediction and the final slot are both in hand, so the max
			// over the placement loop is the true maximum error.
			b.noteInsertErr(pos, pred)
		}
		last = pos
	}
	b.repairAllFills()
	b.rebuildErr = b.ErrBound
}

// repairAllFills rewrites every gap to duplicate its closest right slot.
func (b *Base) repairAllFills() {
	fill := Slot{Key: math.Inf(1)}
	for i := len(b.Slots) - 1; i >= 0; i-- {
		if b.Occ.Test(i) {
			fill = b.Slots[i]
		} else {
			b.Slots[i] = fill
		}
	}
}

// DataSizeBytes accounts the node's data storage per §5.1: the allocated
// keys and payloads including gaps, plus the bitmap. The formula prices
// a payload at payloadBytes whatever the in-memory slot holds, so the
// figures compare with the paper's and across layouts.
func (b *Base) DataSizeBytes(payloadBytes int) int {
	return len(b.Slots)*8 + len(b.Slots)*payloadBytes + b.Occ.SizeBytes()
}

// ErrInvariant is wrapped by all CheckInvariants failures.
var ErrInvariant = errors.New("leafbase: invariant violated")

// CheckInvariants verifies the structural invariants of the node:
// the bitmap count matches NumKeys, the keys of all slots (fills
// included) are non-decreasing, occupied keys are strictly increasing
// and finite, every gap is a copy of its closest right occupied slot —
// key and payload — (or {+Inf, 0} at the tail), and
// — on modeled nodes — ErrBound is a true upper bound on every stored
// key's prediction error (verified by exhaustive re-prediction, so any
// test that checks invariants after a mutation sequence also audits the
// incrementally-maintained bound).
func (b *Base) CheckInvariants() error {
	if b.Occ.Count() != b.NumKeys {
		return fmt.Errorf("%w: bitmap count %d != NumKeys %d", ErrInvariant, b.Occ.Count(), b.NumKeys)
	}
	if b.Occ.Len() != len(b.Slots) {
		return fmt.Errorf("%w: capacity mismatch slots=%d bitmap=%d",
			ErrInvariant, len(b.Slots), b.Occ.Len())
	}
	prev := math.Inf(-1)
	prevOcc := math.Inf(-1)
	for i, sl := range b.Slots {
		k := sl.Key
		if k < prev {
			return fmt.Errorf("%w: slot %d key %v < slot %d key %v", ErrInvariant, i, k, i-1, prev)
		}
		prev = k
		if b.Occ.Test(i) {
			if math.IsInf(k, 0) || math.IsNaN(k) {
				return fmt.Errorf("%w: occupied slot %d holds non-finite key %v", ErrInvariant, i, k)
			}
			if k <= prevOcc {
				return fmt.Errorf("%w: duplicate/unordered occupied key %v at %d", ErrInvariant, k, i)
			}
			prevOcc = k
			if b.HasModel {
				pred := b.predictFast(k)
				if e := i - pred; e > b.ErrBound || -e > b.ErrBound {
					return fmt.Errorf("%w: key %v at slot %d predicted at %d: error %d exceeds ErrBound %d",
						ErrInvariant, k, i, pred, e, b.ErrBound)
				}
			}
		} else {
			want := Slot{Key: math.Inf(1)}
			if n := b.Occ.NextSet(i); n >= 0 {
				want = b.Slots[n]
			}
			if sl != want {
				return fmt.Errorf("%w: gap fill at %d is %+v, want %+v", ErrInvariant, i, sl, want)
			}
		}
	}
	return nil
}
