package gapped

import "sync/atomic"

// This file implements the per-node half of the index's lock-free
// point-read protocol: a sequence lock on one data array.
//
// Writers bump Ver to odd before they change any slot of the array in
// place (a gap claim, a shift, a payload overwrite, a delete's fill
// repair) and back to even afterwards; placeModelBased, removeKey and
// Update do this themselves, so every in-place slot write is covered.
// Work that builds a replacement array (expand, contract, retrain,
// merge, split) never touches the old array's Ver: the old array is
// never written again once it is replaced, so a reader still probing it
// reads a stale but consistent node.
//
// A reader loads Ver, waits for it to be even, probes with plain
// loads, and trusts the result only if Ver is unchanged — see
// LookupValidated. Any value read while a writer was mid-write is
// thrown away by that check.

// verSpin bounds how many times LookupValidated re-reads an odd Ver
// before it gives up and reports the probe invalid. An in-place write
// holds Ver odd for tens to hundreds of nanoseconds, so a short spin
// bridges it; a writer that stays odd longer (a long shift, or one the
// scheduler preempted mid-write) sends the reader to its caller's
// fallback instead of burning the core.
const verSpin = 256

// beginWrite makes Ver odd: slots of this array are about to change in
// place.
func (a *Array) beginWrite() { atomic.AddUint64(&a.Ver, 1) }

// endWrite makes Ver even again once the in-place write is complete.
func (a *Array) endWrite() { atomic.AddUint64(&a.Ver, 1) }

// LookupValidated is Lookup for a reader that holds no lock: it waits
// (boundedly) for Ver to be even, probes, and re-reads Ver. valid is
// false when the spin bound ran out or a writer changed the array
// during the probe; v and ok are meaningless then. A valid result is
// exactly what a locked Lookup would have returned at the moment Ver
// was first read even.
func (a *Array) LookupValidated(key float64) (v uint64, ok, valid bool) {
	v1 := atomic.LoadUint64(&a.Ver)
	for spin := 0; v1&1 != 0; spin++ {
		if spin == verSpin {
			return 0, false, false
		}
		v1 = atomic.LoadUint64(&a.Ver)
	}
	v, ok = a.Lookup(key)
	return v, ok, atomic.LoadUint64(&a.Ver) == v1
}
