package alex

import (
	"io"
	"math"

	"repro/internal/core"
)

// IndexSnapshot is a consistent point-in-time read-only view of a
// concurrent index (SyncIndex or ShardedIndex), cut by their Snapshot
// methods. The cut itself is cheap — a brief exclusive section that
// marks every data node frozen (an O(#leaves) pass of flag stores, no
// copying) and pins the current reclamation epoch — and once it
// returns, every read below runs with no locks and no coordination
// with writers: the writer clones a frozen node before first mutating
// it, so the snapshot's view never changes no matter how long it is
// held. Copying cost is paid lazily and only for nodes that are
// actually written after the cut.
//
// Call Close when done: it releases the snapshot's epoch pin so the
// index's reclamation bookkeeping can drop structures retired since the
// cut. A snapshot left unclosed is safe (the garbage collector is the
// ultimate reclaimer) but holds retired structures reachable through
// the epoch manager until it is finalized.
type IndexSnapshot struct {
	// parts are the per-tree snapshots in ascending key order: one for a
	// SyncIndex, one per shard for a ShardedIndex (shards own contiguous
	// key ranges, so concatenating parts yields global key order).
	parts   []*core.Snapshot
	cfg     core.Config
	count   int
	stats   Stats
	release func()
}

func newIndexSnapshot(parts []*core.Snapshot, cfg core.Config, release func()) *IndexSnapshot {
	s := &IndexSnapshot{parts: parts, cfg: cfg, release: release}
	for _, p := range parts {
		s.count += p.Count
		st := p.TreeStats
		s.stats.Merge(&st)
	}
	return s
}

// Len returns the number of elements at the cut.
func (s *IndexSnapshot) Len() int { return s.count }

// Stats returns the aggregated index statistics at the cut.
func (s *IndexSnapshot) Stats() Stats { return s.stats }

// Scan visits elements with key >= start in ascending key order until
// visit returns false, returning the number visited. It takes no locks:
// the caller may hold the snapshot open for arbitrarily long scans
// while writers proceed at full speed.
func (s *IndexSnapshot) Scan(start float64, visit func(key float64, payload uint64) bool) int {
	n := 0
	stopped := false
	wrapped := func(k float64, v uint64) bool {
		n++
		if !visit(k, v) {
			stopped = true
			return false
		}
		return true
	}
	for _, p := range s.parts {
		p.Scan(start, wrapped)
		if stopped {
			break
		}
	}
	return n
}

// ScanRange visits all elements with start <= key < end in order.
// Empty or unordered ranges (end <= start, NaN bounds) visit nothing.
func (s *IndexSnapshot) ScanRange(start, end float64, visit func(key float64, payload uint64) bool) int {
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

// ScanN collects up to max elements starting at the first key >= start.
func (s *IndexSnapshot) ScanN(start float64, max int) ([]float64, []uint64) {
	if max < 0 {
		max = 0
	}
	return s.ScanNInto(start, max, make([]float64, 0, max), make([]uint64, 0, max))
}

// ScanNInto is ScanN appending into caller-supplied slices (reset to
// length 0 first) and returning them; with capacity for max elements it
// allocates nothing.
func (s *IndexSnapshot) ScanNInto(start float64, max int, keys []float64, payloads []uint64) ([]float64, []uint64) {
	keys, payloads = keys[:0], payloads[:0]
	for _, p := range s.parts {
		if len(keys) >= max {
			break
		}
		// Each part appends only its keys >= start (parts before the
		// start key contribute nothing), staged into the spare tail
		// capacity so a sufficiently large destination allocates nothing.
		tailK, tailP := keys[len(keys):], payloads[len(payloads):]
		k, v := p.ScanNInto(start, max-len(keys), tailK, tailP)
		keys = append(keys, k...)
		payloads = append(payloads, v...)
	}
	return keys, payloads
}

// WriteTo serializes the snapshot in the single-Index format
// (configuration included), so ReadFrom / ReadFromSharded restore it
// with any backend and any shard count. It streams the pairs straight
// from the sealed leaves of each part, in key order: no copy of the
// contents, no tree, and no index lock — writers proceed meanwhile.
func (s *IndexSnapshot) WriteTo(w io.Writer) (int64, error) {
	e := core.NewEncoder(w, s.cfg, s.count)
	for _, p := range s.parts {
		for _, d := range p.Leaves {
			e.WriteLeaf(d)
		}
	}
	return e.Close()
}

// Close releases the snapshot's epoch pin. Idempotent; reads remain
// valid after Close (the snapshot still references its sealed nodes),
// but well-behaved callers Close as soon as they are done so retired
// structures stop accumulating on the epoch manager's hold list.
func (s *IndexSnapshot) Close() error {
	if s.release != nil {
		s.release()
		s.release = nil
	}
	return nil
}

// Iter returns a cursor over the snapshot positioned before its first
// element. Snapshot cursors need no Close of their own and stay valid
// as long as the snapshot.
func (s *IndexSnapshot) Iter() *SnapshotIterator { return s.IterFrom(math.Inf(-1)) }

// IterFrom returns a cursor positioned before the first element whose
// key is >= start.
func (s *IndexSnapshot) IterFrom(start float64) *SnapshotIterator {
	return &SnapshotIterator{s: s, pi: -1, start: start}
}

// SnapshotIterator is a stateful cursor over an IndexSnapshot in
// ascending key order. Unlike Index.Iterator it is immune to concurrent
// mutation: it reads the snapshot's sealed nodes, so it never
// invalidates, never skips, and never repeats, regardless of writer
// activity.
type SnapshotIterator struct {
	s     *IndexSnapshot
	pi    int // current part index; -1 before the first fetch
	cur   *core.SnapIterator
	start float64
	key   float64
	val   uint64
	ok    bool
}

// Next advances to the next element, reporting whether one exists.
func (it *SnapshotIterator) Next() bool {
	for {
		if it.cur == nil {
			it.pi++
			if it.pi >= len(it.s.parts) {
				it.ok = false
				return false
			}
			it.cur = it.s.parts[it.pi].IterFrom(it.start)
		}
		if it.cur.Next() {
			it.key, it.val = it.cur.Key(), it.cur.Payload()
			it.ok = true
			return true
		}
		it.cur = nil
	}
}

// Key returns the current element's key; valid only after Next returned
// true.
func (it *SnapshotIterator) Key() float64 { return it.key }

// Payload returns the current element's payload; valid only after Next
// returned true.
func (it *SnapshotIterator) Payload() uint64 { return it.val }

// Valid reports whether the iterator currently points at an element.
func (it *SnapshotIterator) Valid() bool { return it.ok }

// EpochStats reports the state of an index's epoch-based reclamation:
// the current epoch, how many snapshots are pinned, how many retired
// structures the manager still holds for them, and how many it has
// released to the garbage collector.
type EpochStats struct {
	Epoch     uint64
	Pins      int
	Retired   int
	Reclaimed uint64
}
