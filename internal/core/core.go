// Package core implements ALEX, the updatable adaptive learned index
// (§3). An ALEX tree is a Recursive Model Index whose inner nodes hold a
// linear model and an array of child pointers (possibly repeated, when
// adjacent partitions were merged at bulk load), and whose leaves are
// Gapped Array data nodes (§3.3.1, internal/gapped).
//
// The adaptive RMI is shaped by the §4 cost model: bulk loads, rebuilds
// and node splits are planned by the fanout tree of internal/costmodel.
// Config.RMI selects it (ALEX-GA-ARMI) or the two-level static RMI of
// the Learned Index (ALEX-GA-SRMI); SplitOnInsert additionally enables
// §3.4.2 node splitting (used for the distribution-shift and
// sequential-insert experiments). The paper's Packed Memory Array
// layout and Algorithm 4's fixed-fanout loader are not implemented; see
// docs/design-decisions.md.
//
// The tree is single-writer, but it is built to be read lock-free while
// that writer works (the paper's system is single-threaded; §7 lists
// concurrency as future work, and the root package's seqlock + snapshot
// protocols are this reproduction's answer). Every mutable reference —
// child slots, a leaf's data array, the sibling links, root and head —
// is an atomic.Pointer, and every structural change (split, expand,
// retrain, contract, merge rebuild) builds its replacement off to the
// side and publishes it with one atomic store, so a concurrent reader
// always observes either the old or the new structure, never a torn
// intermediate. Value-level mutations (gap claims, shifts, payload
// overwrites) do happen in place; the wrappers' seqlock validation
// discards any read that overlapped them. See docs/concurrency.md for
// the full memory-model argument.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"

	"repro/internal/gapped"
	"repro/internal/linmodel"
	"repro/internal/stats"
)

// RMIMode selects between the static and adaptive model hierarchies (§3.4).
type RMIMode int

const (
	// AdaptiveRMI plans the tree with the §4 cost model, bounding leaf
	// sizes and adapting fanout and depth to the data.
	AdaptiveRMI RMIMode = iota
	// StaticRMI uses a two-level RMI with a fixed number of leaf models,
	// like the Learned Index of Kraska et al.
	StaticRMI
)

// String returns the mode's short name ("ARMI", "SRMI").
func (m RMIMode) String() string {
	switch m {
	case AdaptiveRMI:
		return "ARMI"
	case StaticRMI:
		return "SRMI"
	default:
		return fmt.Sprintf("RMIMode(%d)", int(m))
	}
}

// Config parameterizes an ALEX index. The zero value gives ALEX-GA-ARMI
// with the paper's default space overhead (§5.1).
type Config struct {
	// RMI selects static vs adaptive model hierarchy.
	RMI RMIMode
	// MaxKeysPerLeaf is the maximum bound on keys per data node used by
	// adaptive RMI planning and node splitting (§3.4). Default 4096.
	MaxKeysPerLeaf int
	// SplitFanout is the fanout budget of a node split on insert
	// (§3.4.2): the split planner may choose any power of two up to it,
	// or nest deeper where the modeled cost is lower. Default 4.
	SplitFanout int
	// SplitOnInsert enables node splitting on inserts. Per §5.1,
	// "unless otherwise stated, adaptive RMI does not do node splitting
	// on inserts", so the default is false.
	SplitOnInsert bool
	// NumLeafModels is the number of leaf models for static RMI.
	// 0 means one model per MaxKeysPerLeaf/2 keys at bulk load.
	NumLeafModels int
	// Density is the gapped array's upper density limit d. 0 uses the
	// default tuned for ~43% space overhead.
	Density float64
	// PayloadBytes is the payload size used in data-size accounting
	// (8 for most datasets, 80 for YCSB). Default 8.
	PayloadBytes int
}

func (c Config) withDefaults() Config {
	if c.MaxKeysPerLeaf <= 0 {
		c.MaxKeysPerLeaf = 4096
	}
	if c.SplitFanout < 2 {
		c.SplitFanout = 4
	}
	if c.PayloadBytes <= 0 {
		c.PayloadBytes = 8
	}
	return c
}

// VariantName returns the paper's name for this configuration, e.g.
// "ALEX-GA-ARMI".
func (c Config) VariantName() string {
	return "ALEX-GA-" + c.RMI.String()
}

// node is a tree node — inner or leaf, distinguished by children:
// non-nil marks an inner node routing keys through its linear model,
// nil marks a leaf holding one data array. A single concrete type (no
// interface) keeps every mutable reference a typed atomic.Pointer, so
// lock-free readers can never observe a torn two-word interface value —
// the root cause of the historical Get SIGSEGV this layout fixed.
//
// Publication discipline: all non-atomic fields (model, fanF, the
// children slice header and its length) are written only before the
// node is first published through an atomic pointer, and never after.
// The atomic store that publishes the node is a release, every child
// load an acquire, so readers see those fields fully initialized.
type node struct {
	// Inner-node routing state. children's *elements* are swapped after
	// publication (splits replace a leaf with a fresh subtree), but the
	// slice itself is never grown, shrunk, or reallocated.
	model    linmodel.Model
	fanF     float64 // cached float64(len(children)), see routeSlot
	children []atomic.Pointer[node]

	// Leaf state: the data array, non-nil exactly for leaves.
	// Restructures store a rebuilt array; value-only mutations touch the
	// current array in place.
	ga atomic.Pointer[gapped.Array]

	// Sibling links for range scans, maintained by the writer, followed
	// lock-free by scans.
	next, prev atomic.Pointer[node]
}

// newInner builds an inner node with n child slots (filled by the
// caller before publication) and the routing clamp precomputed.
func newInner(model linmodel.Model, n int) *node {
	return &node{model: model, children: make([]atomic.Pointer[node], n), fanF: float64(n)}
}

// isLeaf reports whether the node is a leaf. The children slice is set
// exactly once, before publication, so this needs no synchronization.
func (n *node) isLeaf() bool { return n.children == nil }

func (n *node) route(key float64) *node {
	return n.children[n.routeSlot(key)].Load()
}

// routeSlot is the descent-hot clamped prediction over the child array.
func (n *node) routeSlot(key float64) int {
	p := math.Floor(n.model.Slope*key + n.model.Intercept)
	if !(p > 0) { // negative, -0, or NaN
		return 0
	}
	if p >= n.fanF {
		return len(n.children) - 1
	}
	return int(p)
}

// data returns the leaf's data array, or nil for inner nodes.
func (n *node) data() *gapped.Array { return n.ga.Load() }

// child returns slot i's current child; writer-side walks use it.
func (n *node) child(i int) *node { return n.children[i].Load() }

// Stats aggregates tree-level and data-node-level counters, plus the
// distribution of per-leaf prediction-error bounds the §4 cost model
// maintains (see gapped.Array.ErrBound).
type Stats struct {
	gapped.Stats
	Splits uint64
	// CostRetrains counts leaf retrains (or splits) triggered by the
	// error-bound cost model rather than by density or size bounds.
	CostRetrains uint64
	NumLeaves    int
	NumInner     int
	Height       int

	// ErrHist buckets modeled leaves by their error bound in powers of
	// two (bucket 0 holds exactly 0, bucket i>0 holds [2^(i-1), 2^i)),
	// the x-axis of the paper's Fig 7 prediction-error plots. Cold
	// (model-less) leaves are excluded.
	ErrHist [20]uint64
	// MaxLeafErr is the largest per-leaf error bound.
	MaxLeafErr int
	// KeysBounded / KeysModeled / KeysTotal weight the distribution by
	// stored keys: KeysBounded live in leaves whose bound fits the
	// bounded-search window (a uniform random stored key is served by
	// bounded search with probability KeysBounded/KeysTotal), KeysModeled
	// in any modeled leaf, KeysTotal everywhere.
	KeysBounded uint64
	KeysModeled uint64
	KeysTotal   uint64
}

// errBucket maps an error bound to its ErrHist bucket.
func errBucket(e int) int {
	b := bits.Len(uint(e)) // 0→0, 1→1, 2..3→2, 4..7→3, ...
	if max := len(Stats{}.ErrHist) - 1; b > max {
		b = max
	}
	return b
}

// Merge accumulates other into s the way a multi-tree wrapper (the
// sharded index) aggregates per-tree stats: counters and histograms
// sum, Height and MaxLeafErr take the maximum.
func (s *Stats) Merge(other *Stats) {
	s.Stats.Add(&other.Stats)
	s.Splits += other.Splits
	s.CostRetrains += other.CostRetrains
	s.NumLeaves += other.NumLeaves
	s.NumInner += other.NumInner
	if other.Height > s.Height {
		s.Height = other.Height
	}
	for i := range s.ErrHist {
		s.ErrHist[i] += other.ErrHist[i]
	}
	if other.MaxLeafErr > s.MaxLeafErr {
		s.MaxLeafErr = other.MaxLeafErr
	}
	s.KeysBounded += other.KeysBounded
	s.KeysModeled += other.KeysModeled
	s.KeysTotal += other.KeysTotal
}

// LeafErrPercentile returns the p-th percentile (0 <= p <= 100) of the
// per-leaf error bounds, resolved to the bucket lower bound of ErrHist;
// -1 when no modeled leaves exist. It delegates to internal/stats so
// the archived percentiles and the rendered histograms share one
// bucket-rank algorithm.
func (s *Stats) LeafErrPercentile(p float64) int {
	return stats.HistogramFromCounts(s.ErrHist[:]).Percentile(p)
}

// BoundedShare returns the fraction of stored keys living in leaves
// served by the bounded-search fast path.
func (s *Stats) BoundedShare() float64 {
	if s.KeysTotal == 0 {
		return 0
	}
	return float64(s.KeysBounded) / float64(s.KeysTotal)
}

// Tree is an ALEX index from float64 keys to uint64 payloads. A Tree
// must not be copied after first use (it holds atomic pointers).
type Tree struct {
	// Lock-free readers load root (and scans head); cfg is fixed once
	// the tree is shared. None of these is written per operation.
	root atomic.Pointer[node]
	head atomic.Pointer[node] // leftmost leaf
	cfg  Config

	// The pad keeps the writer's per-operation counters below off every
	// cache line the fields above share, so an insert on one core does
	// not invalidate the root pointer in a reader's cache on another.
	_            [64]byte
	count        int
	splits       uint64
	costRetrains uint64
	// replaced sums the work counters of the leaves a split or a rebuild
	// took out of the chain: their replacements start counting at zero,
	// so Stats adds this to the live leaves' counters.
	replaced gapped.Stats
}

// maxBuildDepth caps adaptive-RMI plan depth against degenerate data.
const maxBuildDepth = 48

// New returns an empty index ("cold start", §3.4.2): a single empty data
// node that grows by expansion and — with SplitOnInsert — by splitting.
func New(cfg Config) *Tree {
	t := &Tree{cfg: cfg.withDefaults()}
	leaf := t.newLeaf(nil, nil)
	t.root.Store(leaf)
	t.head.Store(leaf)
	return t
}

// BulkLoad builds an index over the given keys and payloads, which need
// not be sorted. Duplicate keys are rejected with an error (ALEX does
// not support duplicates, §7). payloads may be nil, in which case zero
// payloads are stored; otherwise len(payloads) must equal len(keys).
func BulkLoad(keys []float64, payloads []uint64, cfg Config) (*Tree, error) {
	cfg = cfg.withDefaults()
	sortedK, sortedP, err := SortPairs(keys, payloads)
	if err != nil {
		return nil, err
	}
	return bulkLoadSorted(sortedK, sortedP, cfg), nil
}

// SortPairs returns keys (with their payloads riding along) in sorted
// order and validates the bulk-load contract: keys unique and finite.
// payloads may be nil, in which case zero payloads are returned. Every
// entry point that accepts unsorted user keys shares this one
// implementation of the acceptance rules.
//
// Already-sorted input — the common case for bulk loads from scans,
// merge batches, and replay coalescing — is detected with one O(n)
// pass and returned as-is, skipping the index sort and the permutation
// copy: a strict ascent proves both order and uniqueness (and NaN,
// which fails every comparison, falls through to the slow path), so
// only finiteness still needs checking. Callers must therefore not
// assume the returned slices are fresh copies.
func SortPairs(keys []float64, payloads []uint64) ([]float64, []uint64, error) {
	if payloads != nil && len(payloads) != len(keys) {
		return nil, nil, errors.New("core: len(payloads) != len(keys)")
	}
	sorted := true
	for i := 1; i < len(keys); i++ {
		if !(keys[i] > keys[i-1]) {
			sorted = false
			break
		}
	}
	if sorted {
		for _, k := range keys {
			if math.IsNaN(k) || math.IsInf(k, 0) {
				return nil, nil, fmt.Errorf("core: non-finite key %v", k)
			}
		}
		if payloads == nil {
			payloads = make([]uint64, len(keys))
		}
		return keys, payloads, nil
	}
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	sortedK := make([]float64, len(keys))
	sortedP := make([]uint64, len(keys))
	for i, j := range idx {
		sortedK[i] = keys[j]
		if payloads != nil {
			sortedP[i] = payloads[j]
		}
	}
	for i := 1; i < len(sortedK); i++ {
		if sortedK[i] == sortedK[i-1] {
			return nil, nil, fmt.Errorf("core: duplicate key %v", sortedK[i])
		}
	}
	for _, k := range sortedK {
		if math.IsNaN(k) || math.IsInf(k, 0) {
			return nil, nil, fmt.Errorf("core: non-finite key %v", k)
		}
	}
	return sortedK, sortedP, nil
}

// BulkLoadSorted builds an index over keys that are already sorted and
// unique. It avoids the copy and sort of BulkLoad; the caller must
// guarantee order and uniqueness.
func BulkLoadSorted(keys []float64, payloads []uint64, cfg Config) *Tree {
	cfg = cfg.withDefaults()
	if payloads == nil {
		payloads = make([]uint64, len(keys))
	}
	return bulkLoadSorted(keys, payloads, cfg)
}

func bulkLoadSorted(keys []float64, payloads []uint64, cfg Config) *Tree {
	t := &Tree{cfg: cfg}
	if len(keys) == 0 {
		leaf := t.newLeaf(nil, nil)
		t.root.Store(leaf)
		t.head.Store(leaf)
		return t
	}
	t.count = len(keys)
	if cfg.RMI == StaticRMI {
		t.root.Store(t.buildStatic(keys, payloads))
	} else {
		t.root.Store(t.buildCostOptimal(keys, payloads))
	}
	t.linkLeaves()
	return t
}

// newLeaf creates a data node from a sorted unique segment.
func (t *Tree) newLeaf(keys []float64, payloads []uint64) *node {
	n := &node{}
	gcfg := gapped.Config{Density: t.cfg.Density}
	if len(keys) == 0 {
		n.ga.Store(gapped.New(gcfg))
	} else {
		n.ga.Store(gapped.NewFromSorted(keys, payloads, gcfg))
	}
	return n
}

// buildStatic builds the two-level static RMI (§3.2): a root linear model
// over M leaf models, each leaf holding its contiguous partition.
func (t *Tree) buildStatic(keys []float64, payloads []uint64) *node {
	n := len(keys)
	m := t.cfg.NumLeafModels
	if m <= 0 {
		m = n / max(t.cfg.MaxKeysPerLeaf/2, 1)
	}
	if m < 1 {
		m = 1
	}
	model, bounds, nonEmpty := partition(keys, m)
	if m == 1 || nonEmpty <= 1 {
		return t.newLeaf(keys, payloads)
	}
	inner := newInner(model, m)
	for p := 0; p < m; p++ {
		lo, hi := bounds[p], bounds[p+1]
		inner.children[p].Store(t.newLeaf(keys[lo:hi], payloads[lo:hi]))
	}
	return inner
}

// partition trains a model over the sorted keys, scales it to p
// partitions, and returns the model, the p+1 partition boundaries
// (bounds[i] is the first key index of partition i), and the number of
// non-empty partitions. When least squares degenerates — to a single
// non-empty partition, or to a non-monotone fit (catastrophic
// cancellation on extreme key magnitudes can yield a slightly negative
// slope, which would break routing) — an endpoint fit is used instead.
func partition(keys []float64, p int) (linmodel.Model, []int, int) {
	n := len(keys)
	model := linmodel.Train(keys).Scale(float64(p) / float64(n))
	usable := model.Slope >= 0 && !math.IsInf(model.Slope, 0) && !math.IsNaN(model.Slope)
	var bounds []int
	nonEmpty := 0
	if usable {
		bounds, nonEmpty = boundaries(keys, model, p)
	}
	if nonEmpty <= 1 && n > 1 {
		model = linmodel.TrainEndpoints(keys, 0, n).Scale(float64(p) / float64(n))
		bounds, nonEmpty = boundaries(keys, model, p)
	}
	return model, bounds, nonEmpty
}

// boundaries computes partition boundaries for a monotone model:
// bounds[i] = first key index whose unfloored prediction is >= i. Keys
// whose clamped partition is 0 or p-1 are absorbed by the end clamps.
func boundaries(keys []float64, model linmodel.Model, p int) ([]int, int) {
	n := len(keys)
	bounds := make([]int, p+1)
	bounds[0] = 0
	bounds[p] = n
	for i := 1; i < p; i++ {
		target := float64(i)
		bounds[i] = sort.Search(n, func(j int) bool { return model.Predict(keys[j]) >= target })
	}
	// Boundaries from a monotone model are non-decreasing, but guard
	// against pathological slopes.
	for i := 1; i <= p; i++ {
		if bounds[i] < bounds[i-1] {
			bounds[i] = bounds[i-1]
		}
	}
	nonEmpty := 0
	for i := 0; i < p; i++ {
		if bounds[i+1] > bounds[i] {
			nonEmpty++
		}
	}
	return bounds, nonEmpty
}

// linkLeaves rebuilds the sibling chain by an in-order walk. Only used
// at build time, before the tree is shared.
func (t *Tree) linkLeaves() {
	head, _ := linkChain(t.root.Load())
	t.head.Store(head)
}

// linkChain links the subtree's leaves among themselves by an in-order
// walk, deduplicating repeated child pointers, and returns the
// leftmost and rightmost leaf. The links are internal to the subtree —
// safe to set before the subtree is published.
func linkChain(root *node) (head, tail *node) {
	var prev *node
	var walk func(c *node)
	walk = func(c *node) {
		if !c.isLeaf() {
			var last *node
			for i := range c.children {
				ch := c.children[i].Load()
				if ch == last {
					continue
				}
				last = ch
				walk(ch)
			}
			return
		}
		if prev == c {
			return
		}
		c.prev.Store(prev)
		c.next.Store(nil)
		if prev != nil {
			prev.next.Store(c)
		} else {
			head = c
		}
		prev = c
	}
	walk(root)
	return head, prev
}

// traverse returns the leaf responsible for key and its immediate parent
// (nil when the root is a leaf).
func (t *Tree) traverse(key float64) (leaf, parent *node) {
	cur := t.root.Load()
	for !cur.isLeaf() {
		parent = cur
		cur = cur.route(key)
	}
	return cur, parent
}

// leafFor is the read-hot half of traverse: it returns only the leaf,
// skipping the parent bookkeeping mutations need, so the descent loop
// is small enough to stay in registers. Each level is one cached-clamp
// model evaluation and one atomic pointer load.
//
// The descent is safe against concurrent restructures by construction:
// a child slot is a typed atomic pointer, and a split publishes its
// fresh subtree with a single release store, so a lock-free reader
// loads either the old child or the fully built new one — never a torn
// reference. The nil check guards the (unreachable on a consistent
// tree) case of a slot that was never filled; such a probe returns a
// nil leaf — a miss the seqlock validation then discards — instead of
// a fault.
func (t *Tree) leafFor(key float64) *node {
	cur := t.root.Load()
	for cur != nil && !cur.isLeaf() {
		cur = cur.children[cur.routeSlot(key)].Load()
	}
	return cur
}

// Get returns the payload stored for key.
func (t *Tree) Get(key float64) (uint64, bool) {
	leaf := t.leafFor(key)
	if leaf == nil {
		return 0, false // torn optimistic probe; see leafFor
	}
	// The array pointer is loaded once; a restructure publishing a
	// rebuilt array concurrently leaves this probe on the old (intact)
	// one.
	if g := leaf.ga.Load(); g != nil {
		return g.Lookup(key)
	}
	return 0, false
}

// GetValidated is Get for a reader that holds no lock while a writer
// may be working: it descends, loads the leaf's array once, and probes
// it under the array's own seqlock word (gapped.Array.LookupValidated).
// valid is false when the probe overlapped an in-place write of that
// array (or, on a torn descent, reached no leaf); v and ok are then
// meaningless and the caller retries or takes its lock. Writes to other
// leaves never invalidate the probe, and a restructure that replaced
// the array leaves this probe on the old one, which is never written
// again — a stale answer, current when the array pointer was loaded.
func (t *Tree) GetValidated(key float64) (v uint64, ok, valid bool) {
	leaf := t.leafFor(key)
	if leaf == nil {
		return 0, false, false
	}
	if g := leaf.ga.Load(); g != nil {
		return g.LookupValidated(key)
	}
	return 0, false, false
}

// Contains reports whether key is present.
func (t *Tree) Contains(key float64) bool {
	_, ok := t.Get(key)
	return ok
}

// Insert adds key with payload. It reports whether a new element was
// added; inserting an existing key overwrites its payload and returns
// false. Non-finite keys are rejected with a panic, mirroring the data
// nodes.
func (t *Tree) Insert(key float64, payload uint64) bool {
	leaf, parent := t.traverse(key)
	if t.cfg.RMI == AdaptiveRMI && t.cfg.SplitOnInsert && leaf.data().Num() >= t.cfg.MaxKeysPerLeaf {
		if t.splitLeaf(leaf, parent) {
			leaf, parent = t.traverse(key)
		}
	}
	if t.leafInsert(leaf, key, payload) {
		t.count++
		t.costCheck(leaf, parent)
		return true
	}
	return false
}

// costCheck applies the §4 cost-model feedback after inserts touched a
// leaf: when the leaf's prediction-error bound reports that searches
// have drifted well past the bounded-search budget (see
// gapped.Array.RetrainAdvised, which also amortizes the O(n) correction
// over the inserts since the last rebuild), the leaf is corrected —
// split when splitting is enabled and the leaf is large enough that
// partitioning it gives each child its own, better-fitting model,
// retrained in place otherwise. This is what makes chronically
// mispredicting leaves retrain or split *sooner* than the density and
// size bounds alone would: the expansion/split decision consumes the
// measured error, not just occupancy.
func (t *Tree) costCheck(leaf, parent *node) {
	if !leaf.data().RetrainAdvised() {
		return
	}
	if t.cfg.RMI == AdaptiveRMI && t.cfg.SplitOnInsert && leaf.data().Num() >= t.cfg.MaxKeysPerLeaf/2 {
		if t.splitLeaf(leaf, parent) {
			t.costRetrains++
			return
		}
	}
	t.leafRetrain(leaf)
	t.costRetrains++
}

// splitLeaf implements node splitting on inserts (§3.4.2): the leaf
// becomes an inner subtree whose structure the fanout-tree planner
// chooses by minimizing the children's modeled cost within the
// SplitFanout budget, falling back to a flat SplitFanout partition of
// the leaf's keys when the planner cannot partition them; sibling links
// are spliced. Returns false when the leaf's keys cannot be partitioned
// at all (all keys in one partition), in which case the leaf is left in
// place to expand.
//
// The replacement subtree — inner node(s), children, their data
// arrays, their internal sibling links — is built completely off to
// the side; publication is the final child-slot stores (or the root
// store). A lock-free reader therefore sees either the old leaf, still
// intact with all its data, or the finished subtree. The old leaf's
// own next/prev are deliberately left pointing into the chain, so a
// scan paused on it still terminates correctly; the seqlock validation
// rejects its result.
func (t *Tree) splitLeaf(leaf, parent *node) bool {
	keys, payloads := leaf.data().Collect(nil, nil)
	var sub *node
	if pl := t.planParams().NewSplitPlan(keys, t.cfg.SplitFanout); pl != nil {
		sub = t.buildFromPlan(keys, payloads, pl, 0)
	} else {
		s := t.cfg.SplitFanout
		model, bounds, nonEmpty := partition(keys, s)
		if nonEmpty <= 1 {
			return false
		}
		inner := newInner(model, s)
		var last *node
		for p := 0; p < s; p++ {
			lo, hi := bounds[p], bounds[p+1]
			if last != nil && lo == hi {
				// Empty partition: share the preceding leaf rather than
				// materialize an empty node in the middle of the chain.
				inner.children[p].Store(last)
				continue
			}
			nl := t.newLeaf(keys[lo:hi], payloads[lo:hi])
			inner.children[p].Store(nl)
			last = nl
		}
		sub = inner
	}
	// Link the new leaves among themselves, then splice them into the
	// sibling chain. The chain stores are individually atomic; every
	// intermediate state keeps both directions acyclic and terminating.
	first, lastNew := linkChain(sub)
	prev, next := leaf.prev.Load(), leaf.next.Load()
	first.prev.Store(prev)
	lastNew.next.Store(next)
	if prev != nil {
		prev.next.Store(first)
	} else {
		t.head.Store(first)
	}
	if next != nil {
		next.prev.Store(lastNew)
	}
	// Publish: replace the pointer(s) in the parent (merged partitions
	// may hold several copies), or the root. Each store atomically
	// reroutes one slot from the old leaf to the new subtree.
	if parent == nil {
		t.root.Store(sub)
	} else {
		for i := range parent.children {
			if parent.children[i].Load() == leaf {
				parent.children[i].Store(sub)
			}
		}
	}
	t.replaced.Add(&leaf.data().Stats)
	t.splits++
	return true
}

// Delete removes key, reporting whether it was present.
func (t *Tree) Delete(key float64) bool {
	leaf, _ := t.traverse(key)
	if t.leafDelete(leaf, key) {
		t.count--
		return true
	}
	return false
}

// Update overwrites the payload of an existing key.
func (t *Tree) Update(key float64, payload uint64) bool {
	leaf, _ := t.traverse(key)
	return t.leafUpdate(leaf, key, payload)
}

// Len returns the number of stored elements.
func (t *Tree) Len() int { return t.count }

// Config returns the tree's configuration (with defaults applied).
func (t *Tree) Config() Config { return t.cfg }

// Scan visits elements with key >= start in ascending order until visit
// returns false, crossing leaf boundaries through the sibling links. It
// returns the number of elements visited.
func (t *Tree) Scan(start float64, visit func(key float64, payload uint64) bool) int {
	leaf, _ := t.traverse(start)
	// The routed leaf can sit past smaller siblings when start is below
	// the leaf's range; scans never need to look left, because traverse
	// routes by the same model inserts used.
	n := 0
	wrapped := func(k float64, v uint64) bool {
		n++
		return visit(k, v)
	}
	stopped := leaf.data().ScanFrom(start, wrapped)
	for !stopped {
		leaf = leaf.next.Load()
		if leaf == nil {
			break
		}
		stopped = leaf.data().ScanFrom(math.Inf(-1), wrapped)
	}
	return n
}

// ScanN collects up to max elements starting at the first key >= start.
// It returns the keys and payloads visited, for callers that want a
// materialized range (the YCSB-E style scan of §5.1.2).
func (t *Tree) ScanN(start float64, max int) ([]float64, []uint64) {
	if max < 0 {
		max = 0
	}
	return t.ScanNInto(start, max, make([]float64, 0, max), make([]uint64, 0, max))
}

// ScanNInto is ScanN into caller-supplied destination slices: results
// are appended to keys[:0] and payloads[:0] and the filled slices
// returned. Unlike Scan it walks the leaf chain without a visitor
// callback, so when the destinations have capacity for max elements the
// whole scan performs zero allocations.
func (t *Tree) ScanNInto(start float64, max int, keys []float64, payloads []uint64) ([]float64, []uint64) {
	keys, payloads = keys[:0], payloads[:0]
	if max <= 0 {
		return keys, payloads
	}
	leaf := t.leafFor(start)
	for leaf != nil {
		d := leaf.data()
		if d == nil {
			break // torn optimistic probe
		}
		keys, payloads = d.AppendFrom(start, max-len(keys), keys, payloads)
		if len(keys) >= max {
			break
		}
		leaf = leaf.next.Load()
		start = math.Inf(-1)
	}
	return keys, payloads
}

// ScanCount visits up to max elements from start, discarding them; it
// returns how many were visited. Benchmarks use it to avoid allocation.
func (t *Tree) ScanCount(start float64, max int) int {
	remaining := max
	return t.Scan(start, func(k float64, v uint64) bool {
		remaining--
		return remaining > 0
	})
}

// MinKey returns the smallest key in the index.
func (t *Tree) MinKey() (float64, bool) {
	for l := t.head.Load(); l != nil; l = l.next.Load() {
		if k, ok := l.data().MinKey(); ok {
			return k, true
		}
	}
	return 0, false
}

// MaxKey returns the largest key in the index.
func (t *Tree) MaxKey() (float64, bool) {
	var tail *node
	for l := t.head.Load(); l != nil; l = l.next.Load() {
		tail = l
	}
	for l := tail; l != nil; l = l.prev.Load() {
		if k, ok := l.data().MaxKey(); ok {
			return k, true
		}
	}
	return 0, false
}

// Height returns the number of levels (a lone leaf has height 1).
func (t *Tree) Height() int {
	var h func(c *node) int
	h = func(c *node) int {
		if c.isLeaf() {
			return 1
		}
		best := 0
		var last *node
		for i := range c.children {
			ch := c.children[i].Load()
			if ch == last {
				continue
			}
			last = ch
			if d := h(ch); d > best {
				best = d
			}
		}
		return best + 1
	}
	return h(t.root.Load())
}

// Stats aggregates counters over the whole tree, including the
// error-bound distribution the cost model maintains per leaf. Work
// counters include the work of leaves that splits and rebuilds
// replaced.
func (t *Tree) Stats() Stats {
	s := Stats{Stats: t.replaced}
	s.Splits = t.splits
	s.CostRetrains = t.costRetrains
	s.Height = t.Height()
	for l := t.head.Load(); l != nil; l = l.next.Load() {
		d := l.data()
		s.NumLeaves++
		s.Stats.Add(&d.Stats)
		n := uint64(d.Num())
		s.KeysTotal += n
		if e := d.ErrorBound(); e >= 0 {
			s.KeysModeled += n
			s.ErrHist[errBucket(e)]++
			if e > s.MaxLeafErr {
				s.MaxLeafErr = e
			}
			if e <= gapped.BoundedSearchMaxErr {
				s.KeysBounded += n
			}
		}
	}
	var walk func(c *node)
	walk = func(c *node) {
		if c.isLeaf() {
			return
		}
		s.NumInner++
		var last *node
		for i := range c.children {
			ch := c.children[i].Load()
			if ch == last {
				continue
			}
			last = ch
			walk(ch)
		}
	}
	walk(t.root.Load())
	return s
}

// LeafSizes returns the number of keys in each leaf, left to right
// (Fig 12, Appendix B).
func (t *Tree) LeafSizes() []int {
	var sizes []int
	for l := t.head.Load(); l != nil; l = l.next.Load() {
		sizes = append(sizes, l.data().Num())
	}
	return sizes
}

// IndexSizeBytes accounts the index structure per §5.1: every model is
// two float64s (16 B); inner nodes add 8 B per child pointer; every node
// carries a small metadata header. Data nodes' models and sibling
// pointers count toward the index, their arrays toward DataSizeBytes.
func (t *Tree) IndexSizeBytes() int {
	const modelBytes = 16
	const headerBytes = 24
	total := 0
	var walk func(c *node)
	walk = func(c *node) {
		if c.isLeaf() {
			total += modelBytes + headerBytes + 16 // model + header + next/prev
			return
		}
		total += modelBytes + headerBytes + 8*len(c.children)
		var last *node
		for i := range c.children {
			ch := c.children[i].Load()
			if ch == last {
				continue
			}
			last = ch
			walk(ch)
		}
	}
	walk(t.root.Load())
	return total
}

// DataSizeBytes accounts leaf storage: allocated key/payload arrays
// including gaps, plus the occupancy bitmaps.
func (t *Tree) DataSizeBytes() int {
	total := 0
	for l := t.head.Load(); l != nil; l = l.next.Load() {
		total += l.data().DataSizeBytes(t.cfg.PayloadBytes)
	}
	return total
}

// PredictionError returns the RMI's absolute slot prediction error for an
// existing key (Fig 7).
func (t *Tree) PredictionError(key float64) (int, bool) {
	leaf, _ := t.traverse(key)
	return leaf.data().PredictionError(key)
}

// CheckInvariants verifies the whole tree: every data node's internal
// invariants, the sibling chain's order and connectivity, the key-routing
// consistency (every stored key is found by traversal), and the element
// count.
func (t *Tree) CheckInvariants() error {
	// Data node invariants + chain order.
	total := 0
	prevMax := math.Inf(-1)
	seen := make(map[*node]bool)
	for l := t.head.Load(); l != nil; l = l.next.Load() {
		if seen[l] {
			return errors.New("core: sibling chain has a cycle")
		}
		seen[l] = true
		d := l.data()
		if d == nil {
			return errors.New("core: leaf without a data array")
		}
		if err := d.CheckInvariants(); err != nil {
			return err
		}
		if mn, ok := d.MinKey(); ok {
			if mn <= prevMax {
				return fmt.Errorf("core: leaf chain out of order: %v <= %v", mn, prevMax)
			}
			mx, _ := d.MaxKey()
			prevMax = mx
		}
		if next := l.next.Load(); next != nil && next.prev.Load() != l {
			return errors.New("core: broken prev link")
		}
		total += d.Num()
	}
	if total != t.count {
		return fmt.Errorf("core: leaf totals %d != count %d", total, t.count)
	}
	// Every leaf reachable from the root must be in the chain, and every
	// stored key must be routed back to its leaf.
	var walk func(c *node) error
	walk = func(c *node) error {
		if !c.isLeaf() {
			if len(c.children) == 0 {
				return errors.New("core: inner node with no children")
			}
			var last *node
			for i := range c.children {
				ch := c.children[i].Load()
				if ch == nil {
					return errors.New("core: nil child")
				}
				if ch == last {
					continue
				}
				last = ch
				if err := walk(ch); err != nil {
					return err
				}
			}
			return nil
		}
		if !seen[c] {
			return errors.New("core: reachable leaf missing from sibling chain")
		}
		keys, _ := c.data().Collect(nil, nil)
		for _, k := range keys {
			routed, _ := t.traverse(k)
			if routed != c {
				return fmt.Errorf("core: key %v stored in one leaf but routed to another", k)
			}
		}
		return nil
	}
	return walk(t.root.Load())
}
