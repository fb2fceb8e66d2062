package core

import "math"

// Iterator is a stateful cursor over the index in ascending key order.
// It walks data nodes through the sibling links, skipping gaps via the
// occupancy bitmaps. The iterator reads live structures: mutating the
// index while iterating invalidates the cursor (like the single-writer
// contract of the index itself). For an iterator that stays valid under
// concurrent writes, cut a Snapshot and use its SnapIterator.
type Iterator struct {
	leaf *node
	slot int
	key  float64
	val  uint64
	ok   bool
}

// Iter returns an iterator positioned before the first element; call
// Next to advance onto it.
func (t *Tree) Iter() *Iterator {
	return t.IterFrom(math.Inf(-1))
}

// IterFrom returns an iterator positioned before the first element whose
// key is >= start.
func (t *Tree) IterFrom(start float64) *Iterator {
	leaf, _ := t.traverse(start)
	slot := leaf.data().LowerBoundOcc(start)
	// Position "before" the target slot so the first Next lands on it.
	return &Iterator{leaf: leaf, slot: slot, ok: false, key: start}
}

// Next advances to the next element, reporting whether one exists.
func (it *Iterator) Next() bool {
	if it.leaf == nil {
		return false
	}
	if it.ok {
		// Advance past the current slot.
		it.slot = it.leaf.data().NextSlot(it.slot)
	} else if it.slot >= 0 {
		// First call: the stored slot, if any, is the element itself.
		// (slot already points at the lower bound; nothing to do.)
	} else {
		it.slot = -1
	}
	for it.slot < 0 {
		it.leaf = it.leaf.next.Load()
		if it.leaf == nil {
			it.ok = false
			return false
		}
		it.slot = it.leaf.data().NextSlot(-1)
	}
	it.key, it.val = it.leaf.data().At(it.slot)
	it.ok = true
	return true
}

// Key returns the current element's key; valid only after Next returned
// true.
func (it *Iterator) Key() float64 { return it.key }

// Payload returns the current element's payload; valid only after Next
// returned true.
func (it *Iterator) Payload() uint64 { return it.val }

// Valid reports whether the iterator currently points at an element.
func (it *Iterator) Valid() bool { return it.ok }
