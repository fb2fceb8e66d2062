package core

import (
	"sync/atomic"
	"testing"
)

// TestPointReadValidatesItsOwnLeaf pins the granularity of the
// lock-free point read: GetValidated checks the sequence word of the
// one leaf it probes, so a writer mid-way through leaf A invalidates
// reads of A's keys and no others. It also pins the other half of the
// protocol: a restructure that replaces an array never makes the old
// array's word odd, since the old array is never written again.
func TestPointReadValidatesItsOwnLeaf(t *testing.T) {
	keys := make([]float64, 4096)
	for i := range keys {
		keys[i] = float64(i) * 2
	}
	tr := BulkLoadSorted(keys, nil, Config{RMI: AdaptiveRMI, MaxKeysPerLeaf: 256})
	keyA, keyB := keys[0], keys[len(keys)-1]
	leafA, leafB := tr.leafFor(keyA), tr.leafFor(keyB)
	if leafA == leafB {
		t.Fatal("want the two keys in different leaves")
	}
	a := leafA.ga.Load()

	atomic.AddUint64(&a.Ver, 1) // leaf A: an in-place write in flight
	if _, ok, valid := tr.GetValidated(keyB); !valid || !ok {
		t.Fatalf("read of leaf B with leaf A mid-write: valid=%v found=%v, want both true", valid, ok)
	}
	if _, _, valid := tr.GetValidated(keyA); valid {
		t.Fatal("read of leaf A mid-write reported valid after the spin bound ran out")
	}
	atomic.AddUint64(&a.Ver, 1)
	if v, ok, valid := tr.GetValidated(keyA); !valid || !ok || v != 0 {
		t.Fatalf("read of leaf A after the write: v=%d found=%v valid=%v", v, ok, valid)
	}

	// An in-place insert advances the word by one odd-even pair.
	before := atomic.LoadUint64(&a.Ver)
	if !tr.Insert(keyA+1, 7) || leafA.ga.Load() != a {
		t.Fatal("want an in-place insert into leaf A")
	}
	if got := atomic.LoadUint64(&a.Ver); got != before+2 {
		t.Fatalf("in-place insert: Ver %d -> %d, want +2", before, got)
	}

	// Fill leaf A until an insert expands it: the replaced array's word
	// is left exactly as the last in-place write left it.
	for k := keyA + 1.5; leafA.ga.Load() == a; k += 0.5 {
		before = atomic.LoadUint64(&a.Ver)
		tr.Insert(k, 1)
	}
	if got := atomic.LoadUint64(&a.Ver); got != before || got&1 != 0 {
		t.Fatalf("expand: replaced array's Ver %d -> %d, want unchanged and even", before, got)
	}
	if tr.Stats().Expands == 0 {
		t.Fatal("want the array replaced by an expand")
	}
	if _, ok, valid := tr.GetValidated(keyA + 1); !valid || !ok {
		t.Fatalf("read after expand: valid=%v found=%v", valid, ok)
	}
}
