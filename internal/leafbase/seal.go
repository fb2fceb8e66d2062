package leafbase

import "sync/atomic"

// This file implements the freeze half of the index's snapshot
// protocol. A snapshot does not copy data nodes; it *seals* them: the
// sealed flag promises that the arrays behind this Base will never be
// mutated again. The writer honors the promise with copy-on-write — its
// first mutation of a sealed node clones it (CloneInto) and republishes
// the clone through the node's atomic array pointer, leaving the sealed
// original frozen for every snapshot that sealed it. Snapshot creation
// is therefore O(#leaves) flag stores, not O(n) copying, and the copy
// cost is paid lazily, only for nodes that are actually written while a
// snapshot is live.

// Seal freezes the node: after Seal returns, no mutation may touch the
// node's arrays — writers must clone first (see CloneInto). Sealing is
// idempotent. It must be called with writers excluded (the snapshot
// code paths hold the shard/index locks), but may overlap lock-free
// readers, which never consult the flag.
func (b *Base) Seal() { atomic.StoreUint32(&b.sealed, 1) }

// Sealed reports whether the node was frozen by a snapshot. The writer
// checks it at the top of every mutating leaf operation.
func (b *Base) Sealed() bool { return atomic.LoadUint32(&b.sealed) != 0 }

// CloneInto deep-copies the node's storage into dst, which becomes an
// unsealed, independently mutable replica: the slot array and the
// occupancy bitmap's words are duplicated (the bitmap is held by value,
// so the struct copy alone would share its words), the model, error
// bounds, and work counters carry over by value. The receiver is left
// untouched.
func (b *Base) CloneInto(dst *Base) {
	*dst = *b
	dst.Slots = append([]Slot(nil), b.Slots...)
	dst.Occ = b.Occ.Clone()
	//alexvet:ignore dst is a private replica no reader has seen yet; the plain store happens-before its publication
	dst.sealed = 0
}
