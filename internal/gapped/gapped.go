// Package gapped implements ALEX's data node, the Gapped Array of
// §3.3.1 (Algorithms 1 and 3):
//
//   - one array of {key, payload} slots with gaps, where every gap
//     duplicates the whole slot — key and payload — of the closest
//     occupied slot to its right (trailing gaps hold {+Inf, 0}), so the
//     keys are always non-decreasing, exponential search works without
//     consulting the bitmap, and any slot whose key equals a stored key
//     holds that key's payload: a point read touches the slot array only;
//   - an occupancy bitmap distinguishing real elements from gaps
//     (§5.2.3), which writes, scans and the writer-side find consult;
//   - a per-node linear model with model-based inserts, lookups by
//     exponential search from the predicted position (Alg 3), and
//     model-based re-insertion during node rebuilds;
//   - gap-making by shifting toward the closest gap (Alg 1), with shift
//     accounting for the Fig 8 experiment;
//   - the growth policy: when the density of the array reaches the upper
//     limit d, the array expands by a factor of 1/d, retrains its model,
//     and re-inserts every element model-based (Algorithm 3), restoring
//     density d²; when deletes leave it below d²/4 it contracts back to
//     d² the same way.
//
// The layout is search-optimized: keys sit at (or very near) their
// predicted positions, so exponential search terminates in a few probes.
// Its weakness is the fully-packed region (Fig 3): worst-case O(n)
// shifts when the model crams many keys into one contiguous run. The
// paper's second layout, the Packed Memory Array (§3.3.2), is not
// implemented; see docs/design-decisions.md.
//
// An array is written only through the methods of cow.go, which either
// change slot values in place under the seqlock of version.go or build
// a replacement array for the caller to publish.
package gapped

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bitmapx"
	"repro/internal/linmodel"
)

// DefaultDensity is the upper density limit d tuned, per §5.1, so that
// data storage overhead is around 43%, comparable to a B+Tree: densities
// cycle in [d², d] with d = 0.8, averaging ≈0.72 occupancy.
const DefaultDensity = 0.8

// MinDensity is the smallest density limit DensityForOverhead returns,
// and the one a snapshot with a lower limit reopens with. A fresh node
// allocates n/d² slots, so below it the space overhead (above 200×)
// stops being a tuning choice.
const MinDensity = 0.05

// minCapacity keeps degenerate nodes from thrashing expansions.
const minCapacity = 4

// Config parameterizes a gapped array node.
type Config struct {
	// Density is the upper density limit d in (0, 1]. The array expands
	// by 1/d when an insert would cross it; initial and post-expansion
	// density is d², and deletes contract it once density falls below
	// d²/4.
	Density float64
}

func (c Config) withDefaults() Config {
	if c.Density <= 0 || c.Density > 1 {
		c.Density = DefaultDensity
	}
	return c
}

// DensityForOverhead returns the density limit d that yields the given
// average data space overhead (Fig 10): overhead 0.43 means allocated
// space ≈ 1.43× the minimum, i.e. average density 1/1.43. Densities
// cycle between d² (fresh) and d (full), so the average is (d+d²)/2.
func DensityForOverhead(overhead float64) float64 {
	if overhead <= 0 {
		return 1
	}
	target := 1 / (1 + overhead) // desired average density
	// Solve (d + d²)/2 = target for d in (0, 1].
	d := (math.Sqrt(1+8*target) - 1) / 2
	if d > 1 {
		d = 1
	}
	if d < MinDensity {
		d = MinDensity
	}
	return d
}

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

// Array is a gapped array data node. The zero value is unusable; use New
// or NewFromSorted. It is not safe for concurrent use; like the system
// evaluated in the paper, the index is single-writer.
type Array struct {
	// Ver is the node's seqlock word: odd while a writer changes the
	// slots of this array in place, even otherwise, advanced by two per
	// in-place write (see version.go). A plain word accessed only
	// through sync/atomic functions, so Array stays copyable; the
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
	// build alongside every (re)allocation of Slots.
	capF float64

	// ErrBound is an upper bound on |occupied slot - predicted slot|
	// over every stored key — the per-leaf expected-prediction-error
	// signal of the paper's §4 cost model, maintained incrementally
	// (the "modular materialisation" framing: updated in place on every
	// mutation, recomputed exactly only when a rebuild retrains the
	// model anyway). It is exact after build and widens
	// monotonically between rebuilds: a gap-claim insert folds in the
	// new key's error, a shift insert re-predicts exactly the slots the
	// shift moved (an O(shift) pass riding on the O(shift) copy), and
	// deletes leave positions — and so the bound — untouched. Probes use
	// it to pick their search strategy (see probe) and the tree's cost
	// model reads it through ErrorBound/RetrainAdvised. Meaningful only while HasModel.
	ErrBound int

	// rebuildErr is ErrBound as computed by the last build —
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
	// atomic.Uint32 so Array stays trivially copyable (CloneForWrite
	// assigns a whole Array value); the flag is only ever
	// written under the index's writer exclusion, the atomics exist so
	// the store in Seal and the load in Sealed are data-race-free when
	// snapshot creation overlaps lock-free readers. The annotation
	// below makes alexvet enforce atomic-only access mechanically.
	//alex:atomic
	sealed uint32

	// HasModel sits after sealed so the bool packs into sealed's word
	// instead of costing a padded slot of its own (fieldalign: 200 -> 192).
	HasModel bool

	// cfg is the density policy. It sits last, behind every field the
	// read path touches, and only writers consult it.
	cfg Config
}

// New returns an empty gapped array.
func New(cfg Config) *Array {
	a := &Array{cfg: cfg.withDefaults()}
	a.build(nil, nil, minCapacity)
	return a
}

// NewFromSorted bulk-loads a node from sorted unique keys. The initial
// capacity is n/d² (§3.3.1: "allocating an array of length c*n such that
// the density is also d²").
func NewFromSorted(keys []float64, payloads []uint64, cfg Config) *Array {
	a := &Array{cfg: cfg.withDefaults()}
	a.build(keys, payloads, a.initialCapacity(len(keys)))
	return a
}

func (a *Array) initialCapacity(n int) int {
	d2 := a.cfg.Density * a.cfg.Density
	capacity := int(math.Ceil(float64(n) / d2))
	if capacity < minCapacity {
		capacity = minCapacity
	}
	return capacity
}

// Config returns the node's configuration.
func (a *Array) Config() Config { return a.cfg }

// build lays the node out afresh from sorted unique keys with the given
// capacity, using model-based placement: it trains the linear model on
// the keys, scales it to the capacity (Alg 3), and places every element
// at its predicted slot in sorted order, falling forward to the next
// free slot on collision. Nodes below the cold-start threshold are
// spread uniformly instead and keep no model. The work counters, Ver
// and the sealed flag are left alone, and no retrain is counted:
// callers that rebuild an existing node count it.
func (a *Array) build(keys []float64, payloads []uint64, capacity int) {
	n := len(keys)
	if capacity < n {
		capacity = n
	}
	if capacity < 1 {
		capacity = 1
	}
	a.Slots = make([]Slot, capacity)
	for i := range a.Slots {
		a.Slots[i].Key = math.Inf(1)
	}
	a.Occ = bitmapx.New(capacity)
	a.Model = linmodel.Model{}
	a.HasModel = false
	a.NumKeys = 0
	a.capF = float64(capacity)
	a.ErrBound = 0
	a.rebuildErr = 0
	a.sinceRebuild = 0
	if n == 0 {
		return
	}
	a.NumKeys = n

	if n >= MinModelKeys {
		a.Model = linmodel.Train(keys).Scale(float64(capacity) / float64(n))
		a.HasModel = true
	} else {
		a.Model = linmodel.Model{}
		a.HasModel = false
	}

	last := -1
	for i := 0; i < n; i++ {
		var pos, pred int
		if a.HasModel {
			pos = a.Model.PredictClamped(keys[i], capacity)
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
		a.Slots[pos] = Slot{keys[i], payloads[i]}
		a.Occ.Set(pos)
		if a.HasModel {
			// The rebuild is where the bound is exact, for free: the
			// prediction and the final slot are both in hand, so the max
			// over the placement loop is the true maximum error.
			a.noteInsertErr(pos, pred)
		}
		last = pos
	}
	a.repairAllFills()
	a.rebuildErr = a.ErrBound
}

// repairAllFills rewrites every gap to duplicate its closest right slot.
func (a *Array) repairAllFills() {
	fill := Slot{Key: math.Inf(1)}
	for i := len(a.Slots) - 1; i >= 0; i-- {
		if a.Occ.Test(i) {
			fill = a.Slots[i]
		} else {
			a.Slots[i] = fill
		}
	}
}

// Cap returns the slot capacity of the node.
func (a *Array) Cap() int { return len(a.Slots) }

// Num returns the number of real elements.
func (a *Array) Num() int { return a.NumKeys }

// Density returns NumKeys / capacity.
func (a *Array) Density() float64 {
	if len(a.Slots) == 0 {
		return 0
	}
	return float64(a.NumKeys) / float64(len(a.Slots))
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
func (a *Array) predictFast(key float64) int {
	p := math.Floor(a.Model.Slope*key + a.Model.Intercept)
	if !(p > 0) { // negative, -0, or NaN
		return 0
	}
	i := len(a.Slots) - 1
	if p < a.capF {
		if j := int(p); j < i {
			i = j
		}
	}
	return i
}

// predictSlot returns the model's predicted slot for key, or a plain
// lower-bound position when the node is in its cold-start (model-less)
// regime.
func (a *Array) predictSlot(key float64) int {
	if !a.HasModel {
		return lowerBound(a.Slots, key, 0, len(a.Slots))
	}
	return a.predictFast(key)
}

// lowerBoundSlot returns the first slot (gap or element) whose key value
// is >= key, locating it by exponential search from the model prediction.
func (a *Array) lowerBoundSlot(key float64) int {
	if !a.HasModel {
		return lowerBound(a.Slots, key, 0, len(a.Slots))
	}
	return exponential(a.Slots, key, a.predictFast(key))
}

// probe returns a slot that holds key when key is stored; for an absent
// key the slot it returns, if it is in range at all, holds another key.
// Lookup and find share it.
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
func (a *Array) probe(key float64) int {
	if !a.HasModel {
		return lowerBound(a.Slots, key, 0, len(a.Slots))
	}
	pos := a.predictFast(key)
	k := a.Slots[pos].Key
	switch e := a.ErrBound; {
	case k == key:
		return pos // direct hit: the element, or a fill duplicating it
	case e > boundedMax:
		return exponential(a.Slots, key, pos)
	case k < key:
		return lowerBoundLinear(a.Slots, key, pos+1, pos+e+1)
	default:
		return lowerBoundLinear(a.Slots, key, pos-e, pos+1)
	}
}

// Lookup returns the payload stored for key. It reads the slot array
// only: by the fill rule a slot whose key equals a stored key holds that
// key's payload, whether it is the element or a gap left of it. Stored
// keys are finite, so the +Inf test keeps a probe for +Inf off the tail
// fills. The one unsigned bound check makes a probe of any state an
// optimistic reader can observe degrade to a miss, never a panic.
func (a *Array) Lookup(key float64) (uint64, bool) {
	s := a.Slots
	if i := a.probe(key); uint(i) < uint(len(s)) && s[i].Key == key && key < math.Inf(1) {
		return s[i].Payload, true
	}
	return 0, false
}

// find returns the occupied slot holding key, or -1. It probes like
// Lookup and then walks the bitmap from the probed slot to the element
// the fill duplicates (a tail fill has none, so +Inf misses); the
// writers (removeKey, Update) use it.
func (a *Array) find(key float64) int {
	s := a.Slots
	if i := a.probe(key); uint(i) < uint(len(s)) && s[i].Key == key {
		return a.Occ.NextSet(i)
	}
	return -1
}

// PredictionError returns |predicted slot - actual slot| for an existing
// key (Fig 7). ok is false when the key is absent.
func (a *Array) PredictionError(key float64) (int, bool) {
	occ := a.find(key)
	if occ < 0 {
		return 0, false
	}
	pred := a.predictSlot(key)
	if pred > occ {
		return pred - occ, true
	}
	return occ - pred, true
}

// ErrorBound returns the node's current prediction-error bound, or -1
// for a model-less (cold start) node. The tree layer reads it for the
// split/expand cost decision and the Stats error histogram.
func (a *Array) ErrorBound() int {
	if !a.HasModel {
		return -1
	}
	return a.ErrBound
}

// RetrainAdvised reports the §4 cost-model feedback signal: the node's
// error bound (expected search work ~log2(2*ErrBound) iterations) has
// drifted well past what a fresh model achieved at the last rebuild,
// and enough inserts accumulated since then that an O(n) retrain is
// amortized. Comparing against the rebuild-time bound — rather than an
// absolute threshold — means a node whose data is inherently hard to
// fit is not rebuilt futilely, while the insert-count hysteresis keeps
// any node from retraining on every insert.
func (a *Array) RetrainAdvised() bool {
	if !a.HasModel || a.ErrBound <= 2*a.rebuildErr+costRetrainSlack {
		return false
	}
	// An O(n) rebuild every >= n/16 inserts is O(16) amortized slots of
	// work per insert — cheaper than the extra log2(e) search iterations
	// every lookup pays on a drifted leaf.
	min := a.NumKeys / 16
	if min < MinModelKeys {
		min = MinModelKeys
	}
	return a.sinceRebuild >= min
}

// LowerBoundOcc returns the first occupied slot whose key is >= key, or
// -1 when no such element exists. Range scans start here.
func (a *Array) LowerBoundOcc(key float64) int {
	lo := a.lowerBoundSlot(key)
	if lo >= len(a.Slots) {
		return -1
	}
	return a.Occ.NextSet(lo)
}

// ScanFrom visits elements with key >= start in ascending key order until
// visit returns false. It reports whether visiting stopped early (visit
// returned false), so multi-node scans know when to stop.
func (a *Array) ScanFrom(start float64, visit func(key float64, payload uint64) bool) bool {
	for i := a.LowerBoundOcc(start); i >= 0; i = a.Occ.NextSet(i + 1) {
		if !visit(a.Slots[i].Key, a.Slots[i].Payload) {
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
func (a *Array) AppendFrom(start float64, max int, keys []float64, payloads []uint64) ([]float64, []uint64) {
	i := a.LowerBoundOcc(start)
	for ; i >= 0 && max > 0; i = a.Occ.NextSet(i + 1) {
		keys = append(keys, a.Slots[i].Key)
		payloads = append(payloads, a.Slots[i].Payload)
		max--
	}
	return keys, payloads
}

// NextSlot returns the first occupied slot strictly after slot, or -1.
// Pass -1 to get the first occupied slot. Iterators use it for
// callback-free traversal.
func (a *Array) NextSlot(slot int) int {
	return a.Occ.NextSet(slot + 1)
}

// At returns the key and payload stored in an occupied slot. It panics
// on a gap or out-of-range slot; callers must only pass slots obtained
// from NextSlot or LowerBoundOcc.
func (a *Array) At(slot int) (float64, uint64) {
	if !a.Occ.Test(slot) {
		panic("gapped: At on a gap slot")
	}
	return a.Slots[slot].Key, a.Slots[slot].Payload
}

// MinKey returns the smallest stored key.
func (a *Array) MinKey() (float64, bool) {
	i := a.Occ.NextSet(0)
	if i < 0 {
		return 0, false
	}
	return a.Slots[i].Key, true
}

// MaxKey returns the largest stored key.
func (a *Array) MaxKey() (float64, bool) {
	i := a.Occ.PrevSet(len(a.Slots) - 1)
	if i < 0 {
		return 0, false
	}
	return a.Slots[i].Key, true
}

// Collect appends the node's elements in key order to the given slices
// and returns them. Passing nil slices allocates exact-size ones.
func (a *Array) Collect(keys []float64, payloads []uint64) ([]float64, []uint64) {
	if keys == nil {
		keys = make([]float64, 0, a.NumKeys)
	}
	if payloads == nil {
		payloads = make([]uint64, 0, a.NumKeys)
	}
	for i := a.Occ.NextSet(0); i >= 0; i = a.Occ.NextSet(i + 1) {
		keys = append(keys, a.Slots[i].Key)
		payloads = append(payloads, a.Slots[i].Payload)
	}
	return keys, payloads
}

// DataSizeBytes accounts the node's data storage per §5.1: the allocated
// keys and payloads including gaps, plus the bitmap. The formula prices
// a payload at payloadBytes whatever the in-memory slot holds, so the
// figures compare with the paper's and across layouts.
func (a *Array) DataSizeBytes(payloadBytes int) int {
	return len(a.Slots)*8 + len(a.Slots)*payloadBytes + a.Occ.SizeBytes()
}

// ErrInvariant is wrapped by all CheckInvariants failures.
var ErrInvariant = errors.New("gapped: invariant violated")

// CheckInvariants verifies the structural invariants of the node:
// the density limit holds, the bitmap count matches NumKeys, the keys of all slots (fills
// included) are non-decreasing, occupied keys are strictly increasing
// and finite, every gap is a copy of its closest right occupied slot —
// key and payload — (or {+Inf, 0} at the tail), and
// — on modeled nodes — ErrBound is a true upper bound on every stored
// key's prediction error (verified by exhaustive re-prediction, so any
// test that checks invariants after a mutation sequence also audits the
// incrementally-maintained bound).
func (a *Array) CheckInvariants() error {
	if a.Cap() > minCapacity && a.NumKeys > 0 {
		if d := a.Density(); d > a.cfg.Density+1e-9 {
			return fmt.Errorf("%w: density %.3f exceeds limit %.3f", ErrInvariant, d, a.cfg.Density)
		}
	}
	if a.Occ.Count() != a.NumKeys {
		return fmt.Errorf("%w: bitmap count %d != NumKeys %d", ErrInvariant, a.Occ.Count(), a.NumKeys)
	}
	if a.Occ.Len() != len(a.Slots) {
		return fmt.Errorf("%w: capacity mismatch slots=%d bitmap=%d",
			ErrInvariant, len(a.Slots), a.Occ.Len())
	}
	prev := math.Inf(-1)
	prevOcc := math.Inf(-1)
	for i, sl := range a.Slots {
		k := sl.Key
		if k < prev {
			return fmt.Errorf("%w: slot %d key %v < slot %d key %v", ErrInvariant, i, k, i-1, prev)
		}
		prev = k
		if a.Occ.Test(i) {
			if math.IsInf(k, 0) || math.IsNaN(k) {
				return fmt.Errorf("%w: occupied slot %d holds non-finite key %v", ErrInvariant, i, k)
			}
			if k <= prevOcc {
				return fmt.Errorf("%w: duplicate/unordered occupied key %v at %d", ErrInvariant, k, i)
			}
			prevOcc = k
			if a.HasModel {
				pred := a.predictFast(k)
				if e := i - pred; e > a.ErrBound || -e > a.ErrBound {
					return fmt.Errorf("%w: key %v at slot %d predicted at %d: error %d exceeds ErrBound %d",
						ErrInvariant, k, i, pred, e, a.ErrBound)
				}
			}
		} else {
			want := Slot{Key: math.Inf(1)}
			if n := a.Occ.NextSet(i); n >= 0 {
				want = a.Slots[n]
			}
			if sl != want {
				return fmt.Errorf("%w: gap fill at %d is %+v, want %+v", ErrInvariant, i, sl, want)
			}
		}
	}
	return nil
}
