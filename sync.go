package alex

import (
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// SyncIndex wraps Index with a readers-writer lock so concurrent readers
// and a serialized writer can share one index safely — and layers a
// seqlock on top so uncontended reads never touch the lock at all.
//
// The paper (§7, "Concurrency Control") sketches lock-coupling over the
// RMI as the fine-grained design; that requires per-node latches and is
// left future work there too. This wrapper is the coarse-grained option
// for writes: correct under any interleaving, serializing writers. The
// read side is optimistic: Get, Contains, GetBatch/GetBatchInto and
// ScanN/ScanNInto first run the model-predict + bounded-search probe
// with no lock, then revalidate a sequence word that writers make odd
// while they mutate and even afterwards — an unchanged even word
// proves no writer overlapped the probe, so the result is exactly what
// the locked path would have returned. A point read validates the word
// of the one leaf it probed, so only a write to that leaf disturbs it;
// the batch and scan probes span many leaves and validate the index's
// own sequence. Only a detected overlap (or optimisticRetries of them)
// falls back to the RLock path, so the read hot path performs zero
// shared-memory writes and read throughput scales with cores instead
// of serializing on the RWMutex reader count. Callback scans (Scan,
// ScanRange) always take the lock: they expose elements to user code
// mid-probe, before any revalidation could discard them.
//
// For write-heavy workloads on multiple cores, ShardedIndex partitions
// the key space so writers stop contending on one lock (its shards run
// the same optimistic read protocol).
type SyncIndex struct {
	// idx and lockOnly are loaded by every read and never written per
	// operation; the pad keeps them off the cache line of mu and seq,
	// which every write dirties (the layout rule of ShardedIndex's
	// shard, see docs/concurrency.md).
	idx *Index
	// lockOnly forces the RLock path; see SetOptimisticReads.
	lockOnly atomic.Bool

	_  [64]byte
	mu sync.RWMutex
	// seq is the seqlock generation: odd while a writer is mutating
	// (under mu), even and advanced once it is done. The batch and scan
	// probes validate against it.
	seq atomic.Uint64
}

// SetOptimisticReads toggles the lock-free read path (default on; also
// compiled out under the race detector — see optimistic.go). Turning it
// off forces every read through the RLock fallback, which is what the
// read_path benchmarks use as the locked baseline.
func (s *SyncIndex) SetOptimisticReads(enabled bool) { s.lockOnly.Store(!enabled) }

// optimistic reports whether reads should attempt the lock-free probe.
func (s *SyncIndex) optimistic() bool { return optimisticReads && !s.lockOnly.Load() }

// NewSync returns an empty thread-safe index.
func NewSync(opts ...Option) *SyncIndex {
	return newSyncFrom(New(opts...))
}

// LoadSync bulk loads a thread-safe index.
func LoadSync(keys []float64, payloads []uint64, opts ...Option) (*SyncIndex, error) {
	idx, err := Load(keys, payloads, opts...)
	if err != nil {
		return nil, err
	}
	return newSyncFrom(idx), nil
}

// newSyncFrom wraps an existing Index.
func newSyncFrom(idx *Index) *SyncIndex { return &SyncIndex{idx: idx} }

// Get returns the payload stored for key.
func (s *SyncIndex) Get(key float64) (uint64, bool) {
	if s.optimistic() {
		if v, ok, valid := s.optimisticGet(key); valid {
			return v, ok
		}
	}
	s.mu.RLock()
	v, ok := s.idx.Get(key)
	s.mu.RUnlock()
	return v, ok
}

// optimisticGet runs the bounded-retry optimistic probe: the tree's
// leaf-validated point read (core.Tree.GetValidated), which snapshots
// the probed leaf's sequence word, looks the key up lock-free, and
// revalidates. valid is false when every attempt overlapped a write to
// that leaf (the results were discarded).
//
// Unlike the batch probes it carries no recover frame — a deferred
// recover costs several nanoseconds, comparable to the whole point
// probe. Instead the point lookup path is panic-proof by construction
// against torn reads: every slot computed from potentially-inconsistent
// node state is clamped or unsigned-guarded against the array it
// actually indexes (see gapped.Array.predictFast and Lookup), so a
// probe racing an in-place write degrades to a wrong result that the
// leaf's validation throws away. See optimistic.go for why the data
// race itself is safe.
func (s *SyncIndex) optimisticGet(key float64) (v uint64, ok, valid bool) {
	for a := 0; a < optimisticRetries; a++ {
		if v, ok, valid = s.idx.t.GetValidated(key); valid {
			return v, ok, true
		}
	}
	return 0, false, false
}

// Contains reports whether key is present.
func (s *SyncIndex) Contains(key float64) bool {
	_, ok := s.Get(key)
	return ok
}

// Apply executes one mutation under a single write-lock acquisition.
// The batch write methods construct Ops over it and DurableIndex
// replays WAL records through it; the point writes below take the same
// lock and sequence bumps without building an Op, so every path shares
// identical semantics. The seqlock bumps around the mutation are what
// let the batch and scan probes detect the overlap and retry.
func (s *SyncIndex) Apply(op Op) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq.Add(1) // odd: mutation in flight
	defer s.seq.Add(1)
	return s.idx.Apply(op)
}

// Insert adds key with payload; see Index.Insert.
func (s *SyncIndex) Insert(key float64, payload uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq.Add(1)
	defer s.seq.Add(1)
	return s.idx.Insert(key, payload)
}

// Delete removes key.
func (s *SyncIndex) Delete(key float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq.Add(1)
	defer s.seq.Add(1)
	return s.idx.Delete(key)
}

// Update overwrites the payload of an existing key. It takes the write
// lock: payload stores mutate the data node arrays.
func (s *SyncIndex) Update(key float64, payload uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq.Add(1)
	defer s.seq.Add(1)
	return s.idx.Update(key, payload)
}

// GetBatch looks up many keys at once; see Index.GetBatch. Batching is
// what makes the wrapper scale: the sequence validation (or, on
// fallback, the lock) is paid once per batch instead of once per key,
// and the keys' cache misses overlap.
func (s *SyncIndex) GetBatch(keys []float64) (payloads []uint64, found []bool) {
	payloads = make([]uint64, len(keys))
	found = make([]bool, len(keys))
	s.GetBatchInto(keys, payloads, found)
	return payloads, found
}

// GetBatchInto is GetBatch into caller-supplied result slices (both
// must have len(keys) elements; every slot is overwritten), making a
// batch read allocation-free end to end. Like Get it probes
// optimistically first: a failed validation leaves garbage in the
// slices, but they are fully rewritten by the retry or the locked
// fallback before the call returns.
func (s *SyncIndex) GetBatchInto(keys []float64, payloads []uint64, found []bool) {
	if s.optimistic() {
		for a := 0; a < optimisticRetries; a++ {
			if s.tryGetBatchInto(keys, payloads, found) {
				return
			}
		}
	}
	s.mu.RLock()
	s.idx.GetBatchInto(keys, payloads, found)
	s.mu.RUnlock()
}

func (s *SyncIndex) tryGetBatchInto(keys []float64, payloads []uint64, found []bool) (valid bool) {
	if len(payloads) != len(keys) || len(found) != len(keys) {
		panic("alex: GetBatchInto result slices must have len(keys)")
	}
	s1 := s.seq.Load()
	if s1&1 != 0 {
		return false
	}
	defer func() {
		if recover() != nil {
			valid = false
		}
	}()
	s.idx.GetBatchInto(keys, payloads, found)
	return s.seq.Load() == s1
}

// InsertBatch adds many key/payload pairs under a single write-lock
// acquisition; see Index.InsertBatch.
func (s *SyncIndex) InsertBatch(keys []float64, payloads []uint64) int {
	return s.Apply(Op{Kind: OpInsert, Keys: keys, Payloads: payloads})
}

// DeleteBatch removes many keys under a single write-lock acquisition;
// see Index.DeleteBatch.
func (s *SyncIndex) DeleteBatch(keys []float64) int {
	return s.Apply(Op{Kind: OpDelete, Keys: keys})
}

// Merge bulk-merges key/payload pairs under a single write-lock
// acquisition; see Index.Merge.
func (s *SyncIndex) Merge(keys []float64, payloads []uint64) int {
	return s.Apply(Op{Kind: OpMerge, Keys: keys, Payloads: payloads})
}

// Len returns the number of stored elements.
func (s *SyncIndex) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.Len()
}

// Scan visits elements with key >= start under the read lock; visit must
// not call back into the index (it would deadlock on a write method and
// is unnecessary on read methods — the data is already in hand).
func (s *SyncIndex) Scan(start float64, visit func(key float64, payload uint64) bool) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.Scan(start, visit)
}

// ScanN collects up to max elements from the first key >= start.
func (s *SyncIndex) ScanN(start float64, max int) ([]float64, []uint64) {
	if max < 0 {
		max = 0
	}
	return s.ScanNInto(start, max, make([]float64, 0, max), make([]uint64, 0, max))
}

// ScanNInto is ScanN appending into caller-supplied slices (reset to
// length 0 first), returning the filled slices; with enough capacity
// the whole scan is allocation-free. Unlike the callback Scan it is
// safe to run optimistically: elements are materialized before the
// sequence validation, so a torn probe is discarded wholesale and
// retried rather than ever reaching the caller.
func (s *SyncIndex) ScanNInto(start float64, max int, keys []float64, payloads []uint64) ([]float64, []uint64) {
	if s.optimistic() {
		for a := 0; a < optimisticRetries; a++ {
			if k, p, valid := s.tryScanNInto(start, max, keys, payloads); valid {
				return k, p
			}
		}
	}
	s.mu.RLock()
	keys, payloads = s.idx.ScanNInto(start, max, keys, payloads)
	s.mu.RUnlock()
	return keys, payloads
}

func (s *SyncIndex) tryScanNInto(start float64, max int, keys []float64, payloads []uint64) (k []float64, p []uint64, valid bool) {
	s1 := s.seq.Load()
	if s1&1 != 0 {
		return keys, payloads, false
	}
	defer func() {
		if recover() != nil {
			k, p, valid = keys, payloads, false
		}
	}()
	k, p = s.idx.ScanNInto(start, max, keys, payloads)
	valid = s.seq.Load() == s1
	return
}

// ScanRange visits all elements with start <= key < end under the read
// lock; the same callback restriction as Scan applies. Empty or
// unordered ranges (end <= start, NaN bounds) visit nothing.
func (s *SyncIndex) ScanRange(start, end float64, visit func(key float64, payload uint64) bool) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.ScanRange(start, end, visit)
}

// MinKey returns the smallest key.
func (s *SyncIndex) MinKey() (float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.MinKey()
}

// MaxKey returns the largest key.
func (s *SyncIndex) MaxKey() (float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.MaxKey()
}

// Stats returns aggregated counters.
func (s *SyncIndex) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.Stats()
}

// IndexSizeBytes accounts the RMI structure.
func (s *SyncIndex) IndexSizeBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.IndexSizeBytes()
}

// DataSizeBytes accounts data node storage.
func (s *SyncIndex) DataSizeBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.DataSizeBytes()
}

// Rebuild reconstructs the index from its current contents through the
// cost-optimal planner (see Index.Rebuild) under the write lock.
// Readers keep running: the optimistic paths detect the overlapping
// sequence bump and retry, and the new tree is published with the
// same atomic stores every split uses.
func (s *SyncIndex) Rebuild() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq.Add(1) // odd: mutation in flight
	defer s.seq.Add(1)
	s.idx.Rebuild()
}

// Snapshot cuts a consistent point-in-time view of the index. The cut
// holds the write lock only for the O(#leaves) sealing pass — no data
// is copied — after which the returned snapshot reads lock-free
// forever, while writers proceed by cloning any sealed node before
// first mutating it. The snapshot needs no Close: dropping it lets the
// garbage collector free the leaves only it still references.
func (s *SyncIndex) Snapshot() *IndexSnapshot {
	s.mu.Lock()
	parts := []*core.Snapshot{s.idx.t.SealLeaves()}
	s.mu.Unlock()
	return newIndexSnapshot(parts, s.idx.t.Config())
}

// WriteTo serializes a consistent snapshot of the index. It cuts a
// Snapshot — briefly taking the write lock to seal — and streams the
// sealed leaves from that, so writers are blocked only for the cut. The
// stream is bulk-loaded on read (exactly as documented on
// Index.WriteTo), so a round trip restores a freshly planned index with
// identical contents.
func (s *SyncIndex) WriteTo(w io.Writer) (int64, error) {
	return s.Snapshot().WriteTo(w)
}

// CheckInvariants verifies the tree under the read lock.
func (s *SyncIndex) CheckInvariants() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.CheckInvariants()
}

// Flush implements the server.Store lifecycle; a purely in-memory
// index has nothing to flush. DurableIndex overrides this with a real
// WAL sync.
func (s *SyncIndex) Flush() error { return nil }

// Close implements the server.Store lifecycle; a purely in-memory
// index holds no resources.
func (s *SyncIndex) Close() error { return nil }

// Unwrap returns the underlying Index for single-threaded phases (bulk
// analysis, iteration); the caller must ensure no concurrent access
// while using it.
func (s *SyncIndex) Unwrap() *Index { return s.idx }
