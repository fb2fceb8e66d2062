package core

import (
	"math"

	"repro/internal/gapped"
)

// Snapshot is a consistent, immutable point-in-time view of a tree: the
// ordered set of its sealed data nodes plus the element count and stats
// captured at the cut. Once SealLeaves returns, the snapshot never
// changes — the writer clones any sealed array before mutating it
// (leafops.go) — so every read below runs without any coordination with
// the live tree, for as long as the caller keeps the snapshot alive.
type Snapshot struct {
	// Leaves holds the sealed data nodes in ascending key order. They
	// own disjoint key ranges; some may be empty.
	Leaves []*gapped.Array
	// Count is the number of elements at the cut.
	Count int
	// TreeStats is the full Stats() aggregate at the cut, captured
	// eagerly because the snapshot keeps no reference to the tree.
	TreeStats Stats
}

// SealLeaves cuts a snapshot: it seals every data node in the sibling
// chain (an O(#leaves) pass of single flag stores — the copying cost is
// paid lazily, only by leaves the writer actually mutates afterwards)
// and captures count and stats. It must run under writer exclusion, so
// the chain is stable and the cut is consistent; the returned snapshot
// is then safe to read concurrently with any later writes.
func (t *Tree) SealLeaves() *Snapshot {
	s := &Snapshot{Count: t.count, TreeStats: t.Stats()}
	for l := t.head.Load(); l != nil; l = l.next.Load() {
		d := l.data()
		d.Seal()
		s.Leaves = append(s.Leaves, d)
	}
	return s
}

// Len returns the number of elements in the snapshot.
func (s *Snapshot) Len() int { return s.Count }

// Scan visits elements with key >= start in ascending order until visit
// returns false, returning the number visited.
func (s *Snapshot) Scan(start float64, visit func(key float64, payload uint64) bool) int {
	n := 0
	wrapped := func(k float64, v uint64) bool {
		n++
		return visit(k, v)
	}
	for i := s.firstLeaf(start); i < len(s.Leaves); i++ {
		if s.Leaves[i].ScanFrom(start, wrapped) {
			break
		}
		start = math.Inf(-1)
	}
	return n
}

// ScanNInto appends up to max elements with key >= start to keys[:0]
// and payloads[:0], returning the filled slices — the snapshot
// counterpart of Tree.ScanNInto.
func (s *Snapshot) ScanNInto(start float64, max int, keys []float64, payloads []uint64) ([]float64, []uint64) {
	keys, payloads = keys[:0], payloads[:0]
	if max <= 0 {
		return keys, payloads
	}
	for i := s.firstLeaf(start); i < len(s.Leaves); i++ {
		keys, payloads = s.Leaves[i].AppendFrom(start, max-len(keys), keys, payloads)
		if len(keys) >= max {
			break
		}
		start = math.Inf(-1)
	}
	return keys, payloads
}

// firstLeaf returns the index of the first leaf that can hold keys >=
// start: leaves own disjoint ascending ranges, so it is the first
// non-empty leaf whose max key is >= start (empty leaves before it
// contribute nothing). Linear from the left with an early exit; scans
// dominated by the visit cost don't benefit from a binary search here.
func (s *Snapshot) firstLeaf(start float64) int {
	for i, d := range s.Leaves {
		if mx, ok := d.MaxKey(); ok && mx >= start {
			return i
		}
	}
	return len(s.Leaves)
}

// SnapIterator is a stateful cursor over a snapshot in ascending key
// order — the snapshot counterpart of Iterator, reading sealed arrays,
// so it stays valid indefinitely regardless of concurrent writes.
type SnapIterator struct {
	s    *Snapshot
	li   int // current leaf index
	slot int
	key  float64
	val  uint64
	ok   bool
}

// Iter returns an iterator positioned before the snapshot's first
// element.
func (s *Snapshot) Iter() *SnapIterator { return s.IterFrom(math.Inf(-1)) }

// IterFrom returns an iterator positioned before the first element
// whose key is >= start.
func (s *Snapshot) IterFrom(start float64) *SnapIterator {
	li := s.firstLeaf(start)
	it := &SnapIterator{s: s, li: li, slot: -1}
	if li < len(s.Leaves) {
		it.slot = s.Leaves[li].LowerBoundOcc(start)
	}
	return it
}

// Next advances to the next element, reporting whether one exists.
func (it *SnapIterator) Next() bool {
	if it.li >= len(it.s.Leaves) {
		it.ok = false
		return false
	}
	if it.ok {
		it.slot = it.s.Leaves[it.li].NextSlot(it.slot)
	}
	for it.slot < 0 {
		it.li++
		if it.li >= len(it.s.Leaves) {
			it.ok = false
			return false
		}
		it.slot = it.s.Leaves[it.li].NextSlot(-1)
	}
	it.key, it.val = it.s.Leaves[it.li].At(it.slot)
	it.ok = true
	return true
}

// Key returns the current element's key; valid only after Next returned
// true.
func (it *SnapIterator) Key() float64 { return it.key }

// Payload returns the current element's payload; valid only after Next
// returned true.
func (it *SnapIterator) Payload() uint64 { return it.val }

// Valid reports whether the iterator currently points at an element.
func (it *SnapIterator) Valid() bool { return it.ok }
