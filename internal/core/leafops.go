package core

import "repro/internal/gapped"

// This file is the writer-side bridge between the tree and the gapped
// array's copy-on-write operation variants. Every mutation of a
// published leaf goes through one of the leafXxx helpers, which:
//
//  1. obtain a writable array — cloning it first if a snapshot sealed
//     the current one (freeze-on-snapshot, clone-on-first-write);
//  2. run the array's COW variant, which mutates in place when the
//     operation is value-only and otherwise builds a replacement;
//  3. publish any replacement with a single atomic store and retire
//     the superseded array for epoch-based reclamation.
//
// Lock-free readers that loaded the old array keep probing it — it is
// never mutated again once unpublished (sealed case) or only ever
// value-mutated (live case, discarded by seqlock validation) — so no
// reader can fault, and pinned snapshots keep their sealed arrays
// byte-stable forever.

// writable returns the leaf's array ready for mutation, cloning and
// republishing it first when a snapshot sealed it.
func (t *Tree) writable(n *node) *gapped.Array {
	g := n.ga.Load()
	if !g.Sealed() {
		return g
	}
	c := g.CloneForWrite()
	n.ga.Store(c)
	t.retireObj(g)
	return c
}

// publish replaces the leaf's array old with repl and retires old.
// Callers test repl for nil first, so the common in-place case pays no
// call.
func (t *Tree) publish(n *node, old, repl *gapped.Array) {
	n.ga.Store(repl)
	t.retireObj(old)
}

func (t *Tree) leafInsert(n *node, key float64, payload uint64) bool {
	g := t.writable(n)
	repl, ok := g.InsertCOW(key, payload)
	if repl != nil {
		t.publish(n, g, repl)
	}
	return ok
}

func (t *Tree) leafDelete(n *node, key float64) bool {
	g := t.writable(n)
	repl, ok := g.DeleteCOW(key)
	if repl != nil {
		t.publish(n, g, repl)
	}
	return ok
}

// leafUpdate overwrites a payload in place. The write itself is
// value-only, but a sealed array must still be cloned first — snapshot
// readers own its exact contents.
func (t *Tree) leafUpdate(n *node, key float64, payload uint64) bool {
	return t.writable(n).Update(key, payload)
}

func (t *Tree) leafRetrain(n *node) {
	g := n.ga.Load()
	t.publish(n, g, g.RetrainCOW())
}

func (t *Tree) leafInsertSortedBatch(n *node, keys []float64, payloads []uint64) int {
	g := t.writable(n)
	repl, added := g.InsertSortedBatchCOW(keys, payloads)
	if repl != nil {
		t.publish(n, g, repl)
	}
	return added
}

func (t *Tree) leafDeleteSortedBatch(n *node, keys []float64) int {
	g := t.writable(n)
	repl, deleted := g.DeleteSortedBatchCOW(keys)
	if repl != nil {
		t.publish(n, g, repl)
	}
	return deleted
}

func (t *Tree) leafMergeSorted(n *node, keys []float64, payloads []uint64) int {
	g := n.ga.Load()
	repl, added := g.MergeSortedCOW(keys, payloads)
	t.publish(n, g, repl)
	return added
}
