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
// copying) — and once it returns, every read below runs with no locks
// and no coordination with writers: the writer clones a frozen node
// before first mutating it, so the snapshot's view never changes no
// matter how long it is held. Copying cost is paid lazily and only for
// nodes that are actually written after the cut.
//
// A snapshot holds exactly the sealed leaves it was cut over. Those the
// index has since replaced stay alive while the snapshot is referenced
// and are freed by the garbage collector once it is dropped; nothing
// else is retained on its behalf, so Close is optional.
type IndexSnapshot struct {
	// parts are the per-tree snapshots in ascending key order: one for a
	// SyncIndex, one per shard for a ShardedIndex (shards own contiguous
	// key ranges, so concatenating parts yields global key order).
	parts []*core.Snapshot
	cfg   core.Config
	count int
	stats Stats
}

func newIndexSnapshot(parts []*core.Snapshot, cfg core.Config) *IndexSnapshot {
	s := &IndexSnapshot{parts: parts, cfg: cfg}
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

// Close does nothing and returns nil. A snapshot holds no lock and no
// resource beyond its own memory, which the garbage collector frees
// once the snapshot is dropped; reads remain valid after Close. It is
// kept so callers written against io.Closer keep working.
func (s *IndexSnapshot) Close() error { return nil }

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
