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
//  3. publish any replacement with a single atomic store and drop the
//     superseded array.
//
// Lock-free readers that loaded the old array keep probing it — it is
// never mutated again once unpublished (sealed case) or only ever
// value-mutated (live case, discarded by seqlock validation) — so no
// reader can fault, and open snapshots keep their sealed arrays
// byte-stable forever. The garbage collector frees a dropped array
// once no reader or snapshot references it.

// writable returns the leaf's array ready for mutation, cloning and
// republishing it first when a snapshot sealed it.
func (t *Tree) writable(n *node) *gapped.Array {
	g := n.ga.Load()
	if !g.Sealed() {
		return g
	}
	c := g.CloneForWrite()
	n.ga.Store(c)
	return c
}

func (t *Tree) leafInsert(n *node, key float64, payload uint64) bool {
	g := t.writable(n)
	repl, ok := g.InsertCOW(key, payload)
	if repl != nil {
		n.ga.Store(repl)
	}
	return ok
}

func (t *Tree) leafDelete(n *node, key float64) bool {
	g := t.writable(n)
	repl, ok := g.DeleteCOW(key)
	if repl != nil {
		n.ga.Store(repl)
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
	n.ga.Store(n.ga.Load().RetrainCOW())
}

func (t *Tree) leafInsertSortedBatch(n *node, keys []float64, payloads []uint64) int {
	g := t.writable(n)
	repl, added := g.InsertSortedBatchCOW(keys, payloads)
	if repl != nil {
		n.ga.Store(repl)
	}
	return added
}

func (t *Tree) leafDeleteSortedBatch(n *node, keys []float64) int {
	g := t.writable(n)
	repl, deleted := g.DeleteSortedBatchCOW(keys)
	if repl != nil {
		n.ga.Store(repl)
	}
	return deleted
}

func (t *Tree) leafMergeSorted(n *node, keys []float64, payloads []uint64) int {
	repl, added := n.ga.Load().MergeSortedCOW(keys, payloads)
	n.ga.Store(repl)
	return added
}
