package alex

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// ShardedIndex partitions the key space across N independent Index
// shards, each guarded by its own RWMutex, so reads and writes that
// touch different regions of the key space proceed in parallel. It is
// the scale-out counterpart to SyncIndex, whose single lock serializes
// every writer (and, under write pressure, starves readers too).
//
// Routing mirrors the paper's adaptive-model philosophy at the
// partition level: shard boundaries are the empirical quantiles of the
// stored keys, so each shard holds an equal slice of the data rather
// than an equal slice of the key range. As the distribution drifts and
// shards grow lopsided, the router is retrained opportunistically on a
// background goroutine — the whole key set is re-partitioned at fresh
// quantiles and each shard is re-bulk-loaded — just as ALEX retrains a
// data node's model when its cost drifts from the prediction.
//
// Batch writes fan sub-batches out to their shards and run the shards
// in parallel; a sorted batch stays sorted within each shard (shards
// cover contiguous key ranges), so the one-descent-per-leaf
// amortization of the batch API is preserved inside every shard. A
// batch read is grouped by shard and resolved on the calling goroutine.
// Ordered operations (Scan, ScanN, ScanRange, Iter) visit shards in
// key order and stitch the results, so callers observe one globally
// sorted sequence.
//
// Consistency: point and batch operations are linearizable per key.
// Multi-shard reads (Scan, Len, Stats, ...) hold a shared gate that
// excludes router retrains but not per-shard writers on shards they
// have not reached yet, so they observe a weakly consistent view —
// the same contract as iterating any concurrently-mutated map.
type ShardedIndex struct {
	tab atomic.Pointer[shardTable]
	// cfg is the effective per-shard configuration; kept as the
	// resolved core.Config (not the option list) so a ShardedIndex
	// restored from a serialized stream preserves the stream's config.
	cfg core.Config

	// gate is read-held by multi-shard operations and write-held by
	// router retrains, so a retrain never swaps the table out from under
	// a scan or batch fan-out.
	gate sync.RWMutex
	// retrainMu serializes retrains (TryLock makes the opportunistic
	// path non-blocking: if a retrain is already running, skip).
	retrainMu sync.Mutex

	retrains     atomic.Uint64 // completed router retrains
	lastdistSize atomic.Int64  // Len() at the last (re)partition

	// carried sums the work counters (gapped.Stats, Splits,
	// CostRetrains) of the shard trees router retrains replaced: the
	// new shards are bulk-loaded and count from zero, so Stats adds
	// this. Guarded by gate: written with it write-held in
	// retrainLocked, read under lockAllRead.
	carried Stats

	// lockOnly forces the locked read path; see SetOptimisticReads.
	lockOnly atomic.Bool
}

// shard is one key-space partition: an Index plus its lock, seqlock
// generation and drift clock.
//
// The fields are laid out by who writes them. idx and moved, which
// readers load, are written only when a retrain supersedes the shard;
// the pad keeps them off the cache line of mu, seq and writes, which
// every write dirties. Without it each write would invalidate the line
// holding idx in the cache of every core reading the shard.
type shard struct {
	idx *Index
	// moved is set (under mu) when a retrain supersedes this shard: its
	// contents live in the new table, so lock-taking routers that raced
	// the swap must reload the table and retry.
	moved bool

	_  [64]byte
	mu sync.RWMutex
	// seq is the shard's seqlock generation: odd while a writer mutates
	// the shard's index (under mu), even and advanced once it is done.
	// The batch and scan probes validate against it; point reads
	// validate against the word of the leaf they probe instead (see
	// optimistic.go). A router retrain never bumps it: retrains freeze
	// the old shard (its index is never mutated again), so a racing
	// optimistic reader of a superseded shard still observes an
	// internally consistent — merely slightly stale, and therefore
	// still linearizable — view.
	seq atomic.Uint64
	// writes is the shard's drift clock: keys written since its last
	// drift check, counted under mu by point and batch writes alike.
	writes int
}

// tick advances the drift clock by n written keys and reports whether
// a drift check is due; the clock restarts when it is. Caller holds
// sh.mu and runs the check (maybeRetrain) only after releasing it.
func (sh *shard) tick(n int) bool {
	sh.writes += n
	if sh.writes < driftCheckEvery {
		return false
	}
	sh.writes = 0
	return true
}

// tryGetBatchInto is one optimistic probe for one shard's group of a
// batch; valid is false when a writer overlapped (including a
// probe that tripped over a mid-rebuild structure and panicked — the
// recover turns it into a retry).
func (sh *shard) tryGetBatchInto(keys []float64, payloads []uint64, found []bool) (valid bool) {
	s1 := sh.seq.Load()
	if s1&1 != 0 {
		return false
	}
	defer func() {
		if recover() != nil {
			valid = false
		}
	}()
	sh.idx.GetBatchInto(keys, payloads, found)
	return sh.seq.Load() == s1
}

// tryScanNInto is one optimistic scan probe appending to the given
// slices; on a failed validation the caller discards the returned
// slices and retries under the lock.
func (sh *shard) tryScanNInto(start float64, max int, keys []float64, payloads []uint64) (k []float64, p []uint64, valid bool) {
	s1 := sh.seq.Load()
	if s1&1 != 0 {
		return keys, payloads, false
	}
	defer func() {
		if recover() != nil {
			k, p, valid = keys, payloads, false
		}
	}()
	k, p = sh.idx.ScanNInto(start, max, keys, payloads)
	valid = sh.seq.Load() == s1
	return
}

// shardTable is one immutable routing epoch: bounds[i] is the exclusive
// upper key bound of shards[i] (the last shard is unbounded). Retrains
// install a whole new table; an installed table is never mutated.
type shardTable struct {
	bounds []float64 // len(shards)-1, non-decreasing
	shards []*shard
}

// locate returns the shard index owning key: the first i with
// key < bounds[i], else the last shard. Open-coded branchless upper
// bound — on the point-read hot path a sort.Search call (closure
// dispatch plus mispredicted halving branches) would cost more than the
// whole model prediction it precedes.
func (t *shardTable) locate(key float64) int {
	b := t.bounds
	n := len(b)
	if n == 0 {
		return 0
	}
	base := 0
	for n > 1 {
		half := n >> 1
		if b[base+half-1] <= key { // lowered to CMOV
			base += half
		}
		n -= half
	}
	if b[base] <= key {
		base++
	}
	return base
}

const (
	// driftCheckEvery spaces the opportunistic imbalance checks.
	driftCheckEvery = 1024
	// minRetrainLen is the smallest index worth re-partitioning.
	minRetrainLen = 1024
	// retrainSlack triggers a retrain when the largest shard exceeds
	// this multiple of the ideal per-shard share.
	retrainSlack = 2
)

// NewSharded returns an empty sharded index with the given shard count
// (<= 0 selects GOMAXPROCS). A cold-started index routes everything to
// the first shard until enough keys accumulate for the first quantile
// retrain to spread them out.
func NewSharded(shards int, opts ...Option) *ShardedIndex {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	s := &ShardedIndex{cfg: buildConfig(opts)}
	s.tab.Store(buildShardTable(shards, nil, nil, s.cfg))
	return s
}

// LoadSharded bulk loads a sharded index: keys are sorted, boundaries
// are picked at the keys' quantiles, and each shard is bulk-loaded with
// its slice. keys need not be sorted; duplicates and non-finite keys
// are rejected. payloads may be nil; shards <= 0 selects GOMAXPROCS.
func LoadSharded(shards int, keys []float64, payloads []uint64, opts ...Option) (*ShardedIndex, error) {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	// Same copy/sort/validation as Load, shared via internal/core.
	ks, ps, err := core.SortPairs(keys, payloads)
	if err != nil {
		return nil, err
	}
	s := &ShardedIndex{cfg: buildConfig(opts)}
	s.tab.Store(buildShardTable(shards, ks, ps, s.cfg))
	s.lastdistSize.Store(int64(len(ks)))
	return s, nil
}

// buildShardTable partitions sorted unique keys at their quantiles into
// nsh shards. Surplus shards (more shards than keys) sit empty at the
// tail behind +Inf bounds.
func buildShardTable(nsh int, keys []float64, payloads []uint64, cfg core.Config) *shardTable {
	t := &shardTable{bounds: make([]float64, nsh-1), shards: make([]*shard, nsh)}
	n := len(keys)
	prev := 0
	for i := 0; i < nsh; i++ {
		hi := n
		if i < nsh-1 {
			hi = (i + 1) * n / nsh
			b := math.Inf(1)
			if hi < n {
				b = keys[hi]
			}
			t.bounds[i] = b
		}
		var sub []uint64
		if payloads != nil {
			sub = payloads[prev:hi]
		}
		t.shards[i] = &shard{idx: &Index{t: core.BulkLoadSorted(keys[prev:hi], sub, cfg)}}
		prev = hi
	}
	return t
}

// readShard routes key to its shard and returns it read-locked. The
// moved check makes the lock-free routing safe against a concurrent
// retrain: a stale table's shard flags itself and the caller retries
// against the freshly installed table. The common path costs exactly
// one atomic table load and one boundary search; on a moved-flag retry
// the boundary slice is re-read only if the router generation (the
// table pointer) actually changed — a retrain always installs the new
// table before flagging the old shards, so an unchanged pointer means
// the routing is still valid.
func (s *ShardedIndex) readShard(key float64) *shard {
	t := s.tab.Load()
	i := t.locate(key)
	for {
		sh := t.shards[i]
		sh.mu.RLock()
		if !sh.moved {
			return sh
		}
		sh.mu.RUnlock()
		if nt := s.tab.Load(); nt != t {
			t = nt
			i = t.locate(key)
		}
	}
}

// writeShard routes key to its shard and returns it write-locked; same
// single-load routing as readShard.
func (s *ShardedIndex) writeShard(key float64) *shard {
	t := s.tab.Load()
	i := t.locate(key)
	for {
		sh := t.shards[i]
		sh.mu.Lock()
		if !sh.moved {
			return sh
		}
		sh.mu.Unlock()
		if nt := s.tab.Load(); nt != t {
			t = nt
			i = t.locate(key)
		}
	}
}

// Get returns the payload stored for key. The read is optimistic
// first: route through the current table and probe the shard's tree
// lock-free, validating against the seqlock word of the leaf probed;
// only detected writer overlap on that leaf falls back to the shard's
// read lock. Writes to other leaves of the shard do not disturb it.
func (s *ShardedIndex) Get(key float64) (uint64, bool) {
	if s.optimistic() {
		if v, ok, valid := s.optimisticGet(key); valid {
			return v, ok
		}
	}
	sh := s.readShard(key)
	v, ok := sh.idx.Get(key)
	sh.mu.RUnlock()
	return v, ok
}

// optimisticGet is the bounded-retry lock-free probe: route through
// the current table and run the shard tree's leaf-validated point read
// (core.Tree.GetValidated); between attempts the route is refreshed
// only if the router generation changed. Like SyncIndex.optimisticGet
// it carries no recover frame — the point lookup path is panic-proof
// by construction against torn reads (clamped and unsigned-guarded
// indexing in gapped), so a probe racing an in-place write returns a
// wrong result that the leaf's validation discards.
func (s *ShardedIndex) optimisticGet(key float64) (v uint64, ok, valid bool) {
	t := s.tab.Load()
	sh := t.shards[t.locate(key)]
	for a := 0; a < optimisticRetries; a++ {
		if v, ok, valid = sh.idx.t.GetValidated(key); valid {
			return v, ok, true
		}
		if nt := s.tab.Load(); nt != t {
			t = nt
			sh = t.shards[t.locate(key)]
		}
	}
	return 0, false, false
}

// Contains reports whether key is present.
func (s *ShardedIndex) Contains(key float64) bool {
	_, ok := s.Get(key)
	return ok
}

// SetOptimisticReads toggles the lock-free read path (default on; also
// compiled out under the race detector). Turning it off forces every
// read through the per-shard RLock fallback — the locked baseline the
// read_path benchmarks compare against.
func (s *ShardedIndex) SetOptimisticReads(enabled bool) { s.lockOnly.Store(!enabled) }

// optimistic reports whether reads should attempt the lock-free probe.
func (s *ShardedIndex) optimistic() bool { return optimisticReads && !s.lockOnly.Load() }

// Apply executes one mutation, routing it to the owning shard (point
// ops) or fanning sub-batches out across shards in parallel (batch
// ops). DurableIndex replays WAL records through it and the batch write
// methods construct Ops over it; a single-key Op takes the same point
// path as Insert and Delete, so every write shares the same routing,
// locking, and drift accounting.
func (s *ShardedIndex) Apply(op Op) int {
	switch op.Kind {
	case OpInsert:
		if len(op.Payloads) != len(op.Keys) {
			panic("alex: len(payloads) != len(keys)")
		}
		if len(op.Keys) == 1 {
			return b2i(s.Insert(op.Keys[0], op.Payloads[0]))
		}
		return s.fanOut(op.Keys, true, func(sh *shard, ks []float64, at []int) int {
			ps := make([]uint64, len(ks))
			for j, p := range at {
				ps[j] = op.Payloads[p]
			}
			return sh.idx.InsertBatch(ks, ps)
		})
	case OpDelete:
		if len(op.Keys) == 1 {
			return b2i(s.Delete(op.Keys[0]))
		}
		return s.fanOut(op.Keys, false, func(sh *shard, ks []float64, _ []int) int {
			return sh.idx.DeleteBatch(ks)
		})
	case OpMerge:
		if op.Payloads != nil && len(op.Payloads) != len(op.Keys) {
			panic("alex: len(payloads) != len(keys)")
		}
		return s.fanOut(op.Keys, true, func(sh *shard, ks []float64, at []int) int {
			var ps []uint64
			if op.Payloads != nil {
				ps = make([]uint64, len(ks))
				for j, p := range at {
					ps[j] = op.Payloads[p]
				}
			}
			return sh.idx.Merge(ks, ps)
		})
	}
	panic("alex: unknown op kind")
}

// b2i is 1 for true and 0 for false: a point write's affected-key count.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// lockPoint routes key to its shard and returns it write-locked with
// its sequence odd, so the shard's batch and scan probes detect the
// overlap (point readers validate the leaf's own word, which the leaf
// write bumps). Pair it with unlockPoint.
func (s *ShardedIndex) lockPoint(key float64) *shard {
	sh := s.writeShard(key)
	sh.seq.Add(1) // odd: mutation in flight
	return sh
}

// unlockPoint ends a point write begun by lockPoint: the sequence turns
// even, the drift clock advances by the n keys written, and the lock is
// released before any drift check runs.
func (s *ShardedIndex) unlockPoint(sh *shard, n int) {
	sh.seq.Add(1)
	due := sh.tick(n)
	sh.mu.Unlock()
	if due {
		s.maybeRetrain()
	}
}

// Insert adds key with payload; see Index.Insert. Only the owning
// shard is locked, so inserts to different shards run in parallel.
func (s *ShardedIndex) Insert(key float64, payload uint64) bool {
	sh := s.lockPoint(key)
	ok := sh.idx.Insert(key, payload)
	s.unlockPoint(sh, 1)
	return ok
}

// Delete removes key.
func (s *ShardedIndex) Delete(key float64) bool {
	sh := s.lockPoint(key)
	ok := sh.idx.Delete(key)
	s.unlockPoint(sh, 1)
	return ok
}

// Update overwrites the payload of an existing key. It changes no
// shard's size, so it does not advance the drift clock.
func (s *ShardedIndex) Update(key float64, payload uint64) bool {
	sh := s.lockPoint(key)
	ok := sh.idx.Update(key, payload)
	s.unlockPoint(sh, 0)
	return ok
}

// partitionScratch is the reusable buffer set of a batch fan-out: the
// per-shard sub-batches, the scatter positions, and the per-worker
// result counts. Fan-outs are frequent on the server's M* command
// paths, so the backing arrays are pooled instead of reallocated per
// batch.
type partitionScratch struct {
	sub    [][]float64
	pos    [][]int
	counts []int
}

var partitionPool = sync.Pool{New: func() any { return new(partitionScratch) }}

// partition splits keys into per-shard sub-batches inside the scratch
// buffers. Input order is preserved within each sub-batch, so a sorted
// batch yields sorted sub-batches (shards own contiguous ranges) and
// duplicate keys keep their relative order. When withPos is set, pos
// maps sub-batch slots back to input slots (ops that don't scatter
// results skip the cost).
func (ps *partitionScratch) partition(t *shardTable, keys []float64, withPos bool) (sub [][]float64, pos [][]int) {
	nsh := len(t.shards)
	for len(ps.sub) < nsh {
		ps.sub = append(ps.sub, nil)
		ps.pos = append(ps.pos, nil)
		ps.counts = append(ps.counts, 0)
	}
	ps.sub = ps.sub[:nsh]
	ps.pos = ps.pos[:nsh]
	ps.counts = ps.counts[:nsh]
	for i := range nsh {
		ps.sub[i] = ps.sub[i][:0]
		ps.pos[i] = ps.pos[i][:0]
		ps.counts[i] = 0
	}
	for i, k := range keys {
		j := t.locate(k)
		ps.sub[j] = append(ps.sub[j], k)
		if withPos {
			ps.pos[j] = append(ps.pos[j], i)
		}
	}
	if !withPos {
		return ps.sub, nil
	}
	return ps.sub, ps.pos
}

// GetBatch looks up many keys, allocating the result slices; it is
// GetBatchInto plus two allocations for the results.
func (s *ShardedIndex) GetBatch(keys []float64) (payloads []uint64, found []bool) {
	payloads = make([]uint64, len(keys))
	found = make([]bool, len(keys))
	s.GetBatchInto(keys, payloads, found)
	return payloads, found
}

// GetBatchInto is GetBatch into caller-supplied result slices (both
// must have len(keys) elements; every slot is overwritten), performing
// no allocations. Every key order takes the same path: each key is
// routed once, the batch is grouped by shard into pooled scratch, and
// each group is resolved by its shard's Index.GetBatchInto (which
// overlaps the cache misses of independent keys), probing
// optimistically first and falling back to the shard's read lock on
// writer overlap. Sorting the keys first would buy nothing: a point
// read shares no work with its neighbours.
func (s *ShardedIndex) GetBatchInto(keys []float64, payloads []uint64, found []bool) {
	if len(payloads) != len(keys) || len(found) != len(keys) {
		panic("alex: GetBatchInto result slices must have len(keys)")
	}
	if len(keys) == 0 {
		return
	}
	s.getBatchOn(s.tab.Load(), keys, payloads, found)
}

// getBatchOn resolves a batch grouped by the shards of table t. One
// counting pass sizes the groups, a second lays the keys out group by
// group with their input slots, and the results are scattered back. A
// group whose shard a retrain superseded since t was loaded resolves
// key by key through Get, which routes against the current table.
func (s *ShardedIndex) getBatchOn(t *shardTable, keys []float64, payloads []uint64, found []bool) {
	sc := getBatchPool.Get().(*getBatchScratch)
	defer getBatchPool.Put(sc)
	n := len(keys)
	if cap(sc.keys) < n {
		sc.keys = make([]float64, n)
		sc.slot = make([]int, n)
		sc.pays = make([]uint64, n)
		sc.found = make([]bool, n)
	}
	ks, slot, pays, fnd := sc.keys[:n], sc.slot[:n], sc.pays[:n], sc.found[:n]
	// off[j+1] first counts shard j's keys; prefix sums then turn off[j]
	// into group j's start. The route of key i is stashed in pays[i]
	// until the layout pass; the lookups overwrite it.
	m := len(t.shards) + 1
	if cap(sc.off) < m {
		sc.off = make([]int, m)
	}
	off := sc.off[:m]
	clear(off)
	for i, k := range keys {
		j := t.locate(k)
		pays[i] = uint64(j)
		off[j+1]++
	}
	for j := 1; j < len(off); j++ {
		off[j] += off[j-1]
	}
	for i, k := range keys {
		j := pays[i]
		p := off[j]
		off[j]++
		ks[p], slot[p] = k, i
	}
	// The layout pass advanced off[j] to group j's end, i.e. the start
	// of group j+1; group j therefore spans [off[j-1], off[j]).
	lo := 0
	for j, sh := range t.shards {
		hi := off[j]
		if lo < hi && !s.getRun(sh, ks[lo:hi], pays[lo:hi], fnd[lo:hi]) {
			for i := lo; i < hi; i++ {
				pays[i], fnd[i] = s.Get(ks[i])
			}
		}
		lo = hi
	}
	for p, i := range slot {
		payloads[i], found[i] = pays[p], fnd[p]
	}
}

// getBatchScratch pools the grouping buffers of GetBatchInto: the keys
// laid out shard by shard, their input slots, the staged results, and
// the per-shard group offsets.
type getBatchScratch struct {
	keys  []float64
	slot  []int
	pays  []uint64
	found []bool
	off   []int
}

var getBatchPool = sync.Pool{New: func() any { return new(getBatchScratch) }}

// getRun resolves one shard's group of a batch: optimistic probes
// first, then the shard's read lock. It reports false when the locked
// path found the shard superseded by a retrain — its keys then live in
// the new table's shards.
func (s *ShardedIndex) getRun(sh *shard, keys []float64, payloads []uint64, found []bool) bool {
	if s.optimistic() {
		for a := 0; a < optimisticRetries; a++ {
			if sh.tryGetBatchInto(keys, payloads, found) {
				return true
			}
		}
	}
	sh.mu.RLock()
	if sh.moved {
		sh.mu.RUnlock()
		return false
	}
	sh.idx.GetBatchInto(keys, payloads, found)
	sh.mu.RUnlock()
	return true
}

// soleShard returns the index of the only non-empty sub-batch, or -1
// if zero or several shards are involved.
func soleShard(sub [][]float64) int {
	only := -1
	for i := range sub {
		if len(sub[i]) == 0 {
			continue
		}
		if only >= 0 {
			return -1
		}
		only = i
	}
	return only
}

// InsertBatch adds many key/payload pairs, returning how many were new;
// see Index.InsertBatch. Sub-batches run on their shards in parallel.
// len(payloads) must equal len(keys). A one-key batch takes the point
// path.
func (s *ShardedIndex) InsertBatch(keys []float64, payloads []uint64) int {
	return s.Apply(Op{Kind: OpInsert, Keys: keys, Payloads: payloads})
}

// DeleteBatch removes many keys, returning how many were present; see
// Index.DeleteBatch.
func (s *ShardedIndex) DeleteBatch(keys []float64) int {
	return s.Apply(Op{Kind: OpDelete, Keys: keys})
}

// Merge bulk-merges key/payload pairs at near-bulk-load speed,
// returning how many were new; see Index.Merge. payloads may be nil.
func (s *ShardedIndex) Merge(keys []float64, payloads []uint64) int {
	return s.Apply(Op{Kind: OpMerge, Keys: keys, Payloads: payloads})
}

// fanOut partitions keys and applies a write op to each involved shard
// under its lock, summing the results. When a single shard is involved
// — the common case for small batches — op runs inline on the caller;
// otherwise each shard gets its own worker goroutine. withPos selects
// whether per-key input positions are tracked for ops that scatter
// results or payloads (at is nil otherwise). The whole fan-out holds the gate shared, so a router
// retrain or snapshot never interleaves with a half-applied batch. A
// write advances each shard's drift clock by its sub-batch length and
// runs a due drift check once that shard's lock is released.
func (s *ShardedIndex) fanOut(keys []float64, withPos bool, op func(sh *shard, ks []float64, at []int) int) int {
	if len(keys) == 0 {
		return 0
	}
	s.gate.RLock()
	defer s.gate.RUnlock()
	t := s.tab.Load()
	scratch := partitionPool.Get().(*partitionScratch)
	defer partitionPool.Put(scratch)
	sub, pos := scratch.partition(t, keys, withPos)
	apply := func(i int) int {
		sh := t.shards[i]
		var at []int
		if withPos {
			at = pos[i]
		}
		sh.mu.Lock()
		sh.seq.Add(1) // odd: mutation in flight on this shard
		defer func() {
			sh.seq.Add(1)
			due := sh.tick(len(sub[i]))
			sh.mu.Unlock()
			if due {
				s.maybeRetrain()
			}
		}()
		return op(sh, sub[i], at)
	}
	if only := soleShard(sub); only >= 0 {
		return apply(only)
	}
	counts := scratch.counts
	var wg sync.WaitGroup
	for i := range sub {
		if len(sub[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			counts[i] = apply(i)
		}(i)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

// Scan visits elements with key >= start in ascending key order until
// visit returns false, stitching shards in key order; it returns the
// number of elements visited. visit runs under shard read locks and
// must not call back into the index.
func (s *ShardedIndex) Scan(start float64, visit func(key float64, payload uint64) bool) int {
	s.gate.RLock()
	defer s.gate.RUnlock()
	t := s.tab.Load()
	total := 0
	stopped := false
	wrapped := func(k float64, v uint64) bool {
		total++
		if !visit(k, v) {
			stopped = true
			return false
		}
		return true
	}
	from := start
	for i := t.locate(start); i < len(t.shards); i++ {
		sh := t.shards[i]
		sh.mu.RLock()
		sh.idx.Scan(from, wrapped)
		sh.mu.RUnlock()
		if stopped {
			break
		}
		from = math.Inf(-1)
	}
	return total
}

// ScanN collects up to max elements from the first key >= start.
func (s *ShardedIndex) ScanN(start float64, max int) ([]float64, []uint64) {
	if max <= 0 {
		return []float64{}, []uint64{}
	}
	return s.ScanNInto(start, max, make([]float64, 0, max), make([]uint64, 0, max))
}

// ScanNInto is ScanN appending into caller-supplied slices (reset to
// length 0 first) and returning them; with capacity for max elements
// it allocates nothing. Shards are visited in key order and stitched;
// each shard's slice of the range is probed optimistically first
// (elements are materialized before the sequence validation, so a torn
// probe is discarded and retried under that shard's read lock, never
// surfaced). The shared gate only excludes router retrains, exactly as
// in Scan, so the result is the same weakly consistent cut.
func (s *ShardedIndex) ScanNInto(start float64, max int, keys []float64, payloads []uint64) ([]float64, []uint64) {
	keys, payloads = keys[:0], payloads[:0]
	if max <= 0 {
		return keys, payloads
	}
	s.gate.RLock()
	defer s.gate.RUnlock()
	t := s.tab.Load()
	from := start
	for i := t.locate(start); i < len(t.shards) && len(keys) < max; i++ {
		sh := t.shards[i]
		want := max - len(keys)
		// Probe into the spare tail capacity so a discarded attempt
		// leaves the stitched prefix untouched.
		tailK, tailP := keys[len(keys):], payloads[len(payloads):]
		k, p, valid := tailK, tailP, false
		if s.optimistic() {
			for a := 0; a < optimisticRetries && !valid; a++ {
				k, p, valid = sh.tryScanNInto(from, want, tailK, tailP)
			}
		}
		if !valid {
			sh.mu.RLock()
			k, p = sh.idx.ScanNInto(from, want, tailK, tailP)
			sh.mu.RUnlock()
		}
		// Appending the returned tail back: if the probe stayed within
		// the spare capacity this copies elements onto themselves (no
		// growth, no allocation); if it grew, the reallocated tail is
		// spliced on normally.
		keys = append(keys, k...)
		payloads = append(payloads, p...)
		from = math.Inf(-1)
	}
	return keys, payloads
}

// ScanRange visits all elements with start <= key < end in order.
// Empty or unordered ranges (end <= start, NaN bounds) visit nothing.
func (s *ShardedIndex) ScanRange(start, end float64, visit func(key float64, payload uint64) bool) int {
	if !(start < end) {
		return 0
	}
	n := 0
	s.Scan(start, func(k float64, v uint64) bool {
		if k >= end {
			return false
		}
		n++
		return visit(k, v)
	})
	return n
}

// ShardedIterator is a cursor over a ShardedIndex in ascending key
// order: the iterator of a snapshot cut at construction. Unlike
// Index.Iterator it is safe under concurrent mutation — the cut seals
// every shard (an O(#leaves) flag pass, no copying; writers clone
// sealed nodes on first write), and the cursor serves from those sealed
// structures with no further locking. Iteration is therefore *strongly*
// consistent: the cursor observes exactly the elements present at
// construction, never a later insert or delete.
type ShardedIterator = SnapshotIterator

// Iter returns a cursor positioned before the first element.
func (s *ShardedIndex) Iter() *ShardedIterator { return s.IterFrom(math.Inf(-1)) }

// IterFrom returns a cursor positioned before the first element whose
// key is >= start.
func (s *ShardedIndex) IterFrom(start float64) *ShardedIterator {
	return s.Snapshot().IterFrom(start)
}

// lockAllRead takes the gate exclusively and read-locks every shard of
// the current table up front (in index order, the same order the
// retrain path locks in), returning the table and an unlock func. The
// whole-index aggregates (Len, Stats) use it so their totals are a
// consistent point-in-time cut: the exclusive gate excludes any batch
// fan-out mid-application (fan-outs hold the gate shared for their
// whole run) and any router retrain, and holding every shard's read
// lock at once excludes in-flight point ops. Aggregating under
// one-at-a-time shard locks — the previous scheme — could tear a
// cross-shard batch: shard A counted after its sub-batch applied,
// shard B before, so Len disagreed with every state the index ever
// acknowledged.
func (s *ShardedIndex) lockAllRead() (*shardTable, func()) {
	s.gate.Lock()
	t := s.tab.Load()
	for _, sh := range t.shards {
		sh.mu.RLock()
	}
	return t, func() {
		for _, sh := range t.shards {
			sh.mu.RUnlock()
		}
		s.gate.Unlock()
	}
}

// Len returns the number of stored elements across all shards, as a
// consistent cut (see lockAllRead): a concurrent cross-shard batch is
// counted either wholly or not at all.
func (s *ShardedIndex) Len() int {
	t, unlock := s.lockAllRead()
	defer unlock()
	n := 0
	for _, sh := range t.shards {
		n += sh.idx.Len()
	}
	return n
}

// MinKey returns the smallest key.
func (s *ShardedIndex) MinKey() (float64, bool) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	for _, sh := range s.tab.Load().shards {
		sh.mu.RLock()
		k, ok := sh.idx.MinKey()
		sh.mu.RUnlock()
		if ok {
			return k, true
		}
	}
	return 0, false
}

// MaxKey returns the largest key.
func (s *ShardedIndex) MaxKey() (float64, bool) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	shards := s.tab.Load().shards
	for i := len(shards) - 1; i >= 0; i-- {
		sh := shards[i]
		sh.mu.RLock()
		k, ok := sh.idx.MaxKey()
		sh.mu.RUnlock()
		if ok {
			return k, true
		}
	}
	return 0, false
}

// Stats returns counters aggregated across shards (work counters, node
// counts and error histograms sum; Height and MaxLeafErr are the
// worst shard's), as a consistent cut — see lockAllRead. Totals like
// Inserts and KeysTotal therefore always describe a state the index
// actually passed through, even under cross-shard batches. Work
// counters include the work of shards that router retrains replaced.
func (s *ShardedIndex) Stats() Stats {
	t, unlock := s.lockAllRead()
	defer unlock()
	agg := s.carried
	for _, sh := range t.shards {
		st := sh.idx.Stats()
		agg.Merge(&st)
	}
	return agg
}

// IndexSizeBytes accounts the RMI structures of all shards.
func (s *ShardedIndex) IndexSizeBytes() int {
	return s.sumShards(func(ix *Index) int { return ix.IndexSizeBytes() })
}

// DataSizeBytes accounts the data node storage of all shards.
func (s *ShardedIndex) DataSizeBytes() int {
	return s.sumShards(func(ix *Index) int { return ix.DataSizeBytes() })
}

func (s *ShardedIndex) sumShards(f func(*Index) int) int {
	s.gate.RLock()
	defer s.gate.RUnlock()
	n := 0
	for _, sh := range s.tab.Load().shards {
		sh.mu.RLock()
		n += f(sh.idx)
		sh.mu.RUnlock()
	}
	return n
}

// Rebuild reconstructs every shard from its current contents through
// the cost-optimal planner (see Index.Rebuild), one shard at a time so
// readers and writers of other shards keep running throughout. The
// shared gate excludes router retrains for the duration, so the table
// cannot be swapped mid-walk; within each shard the write lock and the
// seqlock bumps give optimistic readers the same overlap signal any
// mutation does.
func (s *ShardedIndex) Rebuild() {
	s.gate.RLock()
	defer s.gate.RUnlock()
	for _, sh := range s.tab.Load().shards {
		sh.mu.Lock()
		sh.seq.Add(1) // odd: mutation in flight
		sh.idx.Rebuild()
		sh.seq.Add(1)
		sh.mu.Unlock()
	}
}

// NumShards returns the shard count.
func (s *ShardedIndex) NumShards() int { return len(s.tab.Load().shards) }

// ShardLens returns the element count of every shard in key order —
// the router's balance, useful for monitoring and tests.
func (s *ShardedIndex) ShardLens() []int {
	s.gate.RLock()
	defer s.gate.RUnlock()
	shards := s.tab.Load().shards
	lens := make([]int, len(shards))
	for i, sh := range shards {
		sh.mu.RLock()
		lens[i] = sh.idx.Len()
		sh.mu.RUnlock()
	}
	return lens
}

// Flush implements the server.Store lifecycle; a purely in-memory
// index has nothing to flush. DurableIndex overrides this with a real
// WAL sync.
func (s *ShardedIndex) Flush() error { return nil }

// Close implements the server.Store lifecycle; a purely in-memory
// index holds no resources.
func (s *ShardedIndex) Close() error { return nil }

// Retrains returns how many times the router has re-partitioned the
// key space.
func (s *ShardedIndex) Retrains() uint64 { return s.retrains.Load() }

// WriteTo serializes a point-in-time snapshot of the whole index in
// the single-Index format (configuration included), so ReadFrom /
// ReadFromSharded can restore it with any shard count. It cuts a
// Snapshot — the exclusive gate is held only for the O(#leaves)
// sealing pass — and streams the sealed leaves of every shard in key
// order, concurrently with writers.
func (s *ShardedIndex) WriteTo(w io.Writer) (int64, error) {
	return s.Snapshot().WriteTo(w)
}

// ReadFromSharded deserializes an index written by Index.WriteTo or
// ShardedIndex.WriteTo into a sharded index (shards <= 0 selects
// GOMAXPROCS). The configuration comes from the stream, exactly as
// with ReadFrom. The decoded pairs are partitioned at their quantiles
// and each shard is bulk-loaded from its slice, as LoadSharded does.
func ReadFromSharded(r io.Reader, shards int) (*ShardedIndex, error) {
	cfg, keys, vals, err := core.ReadPairs(r)
	if err != nil {
		return nil, err
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	s := &ShardedIndex{cfg: cfg}
	s.tab.Store(buildShardTable(shards, keys, vals, s.cfg))
	s.lastdistSize.Store(int64(len(keys)))
	return s, nil
}

// Snapshot cuts a consistent point-in-time view across every shard.
// The cut takes the exclusive gate and all shard read locks only for
// the O(#leaves) sealing pass — no data is copied — after which the
// returned snapshot reads lock-free forever while shard writers
// proceed by cloning sealed nodes on first write. The snapshot needs no
// Close: dropping it lets the garbage collector free the leaves only it
// still references.
func (s *ShardedIndex) Snapshot() *IndexSnapshot {
	t, unlock := s.lockAllRead()
	parts := make([]*core.Snapshot, len(t.shards))
	for i, sh := range t.shards {
		parts[i] = sh.idx.t.SealLeaves()
	}
	unlock()
	return newIndexSnapshot(parts, s.cfg)
}

// collectAll gathers every element of the table in key order. The
// caller must hold a lock (read or write) on every shard.
func collectAll(t *shardTable) ([]float64, []uint64) {
	n := 0
	for _, sh := range t.shards {
		n += sh.idx.Len()
	}
	keys := make([]float64, 0, n)
	vals := make([]uint64, 0, n)
	for _, sh := range t.shards {
		sh.idx.Scan(math.Inf(-1), func(k float64, v uint64) bool {
			keys = append(keys, k)
			vals = append(vals, v)
			return true
		})
	}
	return keys, vals
}

// CheckInvariants verifies every shard's tree plus the router's
// invariants: bounds are non-decreasing and every shard's keys lie
// inside its bound window.
func (s *ShardedIndex) CheckInvariants() error {
	s.gate.RLock()
	defer s.gate.RUnlock()
	t := s.tab.Load()
	lower := math.Inf(-1)
	for i, sh := range t.shards {
		upper := math.Inf(1)
		if i < len(t.bounds) {
			upper = t.bounds[i]
		}
		if upper < lower {
			return fmt.Errorf("alex: shard %d bound %v below previous %v", i, upper, lower)
		}
		sh.mu.RLock()
		err := sh.idx.CheckInvariants()
		if err == nil {
			if k, ok := sh.idx.MinKey(); ok && k < lower {
				err = fmt.Errorf("alex: shard %d min key %v below bound %v", i, k, lower)
			}
		}
		if err == nil {
			if k, ok := sh.idx.MaxKey(); ok && k >= upper {
				err = fmt.Errorf("alex: shard %d max key %v at or above bound %v", i, k, upper)
			}
		}
		sh.mu.RUnlock()
		if err != nil {
			return err
		}
		lower = upper
	}
	return nil
}

// Rebalance re-partitions the key space at fresh quantiles immediately,
// blocking until done. Normally the router retrains itself when writes
// skew the shards; this is the manual trigger.
func (s *ShardedIndex) Rebalance() {
	s.retrainMu.Lock()
	s.retrainLocked()
	s.retrainMu.Unlock()
}

// maybeRetrain retrains the router if the largest shard has drifted
// past retrainSlack times its fair share. Non-blocking twice over: if
// a retrain is already running it returns immediately, and when one is
// needed the rebuild runs on its own goroutine so the writer that
// tripped the drift check doesn't absorb an O(n) re-partition stall.
func (s *ShardedIndex) maybeRetrain() {
	if !s.retrainMu.TryLock() {
		return
	}
	t := s.tab.Load()
	if len(t.shards) == 1 {
		s.retrainMu.Unlock()
		return
	}
	total, biggest := 0, 0
	for _, sh := range t.shards {
		sh.mu.RLock()
		l := sh.idx.Len()
		sh.mu.RUnlock()
		total += l
		if l > biggest {
			biggest = l
		}
	}
	need := total >= minRetrainLen
	if need {
		// Require some growth since the last partition so a static
		// imbalance (e.g. many deletes in one region) cannot retrain
		// in a tight loop; a severe skew retrains regardless.
		if int64(total) < s.lastdistSize.Load()+driftCheckEvery/2 &&
			biggest*len(t.shards) <= 2*retrainSlack*total {
			need = false
		} else if biggest*len(t.shards) <= retrainSlack*total {
			need = false
		}
	}
	if !need {
		s.retrainMu.Unlock()
		return
	}
	// Hand the held retrainMu to the rebuild goroutine (Go mutexes are
	// not goroutine-owned); it is released when the retrain finishes.
	go func() {
		defer s.retrainMu.Unlock()
		s.retrainLocked()
	}()
}

// retrainLocked re-partitions all elements at fresh quantiles. Caller
// holds retrainMu. It write-locks the gate and every shard, copies the
// (globally sorted) contents, installs the new table, and marks the
// old shards moved so racing lock-free routers retry.
func (s *ShardedIndex) retrainLocked() {
	s.gate.Lock()
	t := s.tab.Load()
	for _, sh := range t.shards {
		sh.mu.Lock()
	}
	keys, vals := collectAll(t)
	s.tab.Store(buildShardTable(len(t.shards), keys, vals, s.cfg))
	for _, sh := range t.shards {
		sh.moved = true
		st := sh.idx.Stats()
		s.carried.Stats.Add(&st.Stats)
		s.carried.Splits += st.Splits
		s.carried.CostRetrains += st.CostRetrains
	}
	for _, sh := range t.shards {
		sh.mu.Unlock()
	}
	s.gate.Unlock()
	s.lastdistSize.Store(int64(len(keys)))
	s.retrains.Add(1)
}
