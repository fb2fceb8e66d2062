package alex

// Allocation regression tests for the read hot paths: Get, Contains,
// GetBatchInto and ScanNInto must stay at 0 allocs/op on all three
// wrappers. These are the guarantees the *Into API exists for — a batch
// read pipeline (facade → sync/shard → core → leaf) that never touches
// the garbage collector once the destination buffers are warm.
//
// Internal package test: it needs raceEnabled (the race detector's
// memory instrumentation allocates, so the assertions only hold on
// normal builds).

import (
	"math"
	"testing"
)

// allocKeys builds a deterministic quasi-uniform key set large enough
// to span many leaves and several shards.
func allocKeys(n int) []float64 {
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = float64(i)*1.618 + math.Mod(float64(i)*0.337, 1.0)
	}
	return keys
}

type readSurface interface {
	Get(key float64) (uint64, bool)
	Contains(key float64) bool
	GetBatchInto(keys []float64, payloads []uint64, found []bool)
	ScanNInto(start float64, max int, keys []float64, payloads []uint64) ([]float64, []uint64)
}

func assertZeroAlloc(t *testing.T, what string, f func()) {
	t.Helper()
	if got := testing.AllocsPerRun(100, f); got != 0 {
		t.Errorf("%s: %v allocs/op, want 0", what, got)
	}
}

func testZeroAllocReads(t *testing.T, name string, idx readSurface, keys []float64) {
	batch := keys[len(keys)/4 : len(keys)/4+64]
	vals := make([]uint64, len(batch))
	found := make([]bool, len(batch))
	scanK := make([]float64, 0, 128)
	scanV := make([]uint64, 0, 128)
	i := 0
	assertZeroAlloc(t, name+".Get", func() {
		i++
		idx.Get(keys[(i*31)%len(keys)])
	})
	assertZeroAlloc(t, name+".Contains", func() {
		i++
		idx.Contains(keys[(i*17)%len(keys)])
	})
	assertZeroAlloc(t, name+".GetBatchInto", func() {
		idx.GetBatchInto(batch, vals, found)
	})
	// Unsorted batches take the same path; on ShardedIndex its pooled
	// shard grouping must be allocation free once the pool is warm.
	unsorted := make([]float64, len(batch))
	for j, k := range batch {
		unsorted[(j*29)%len(batch)] = k
	}
	assertZeroAlloc(t, name+".GetBatchInto(unsorted)", func() {
		idx.GetBatchInto(unsorted, vals, found)
	})
	assertZeroAlloc(t, name+".ScanNInto", func() {
		i++
		scanK, scanV = idx.ScanNInto(keys[(i*13)%len(keys)], 128, scanK, scanV)
	})
}

func TestZeroAllocReadPaths(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; assertions hold on normal builds only")
	}
	keys := allocKeys(20000)

	idx := LoadSorted(keys, nil)
	testZeroAllocReads(t, "Index", idx, keys)

	sy, err := LoadSync(keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	testZeroAllocReads(t, "SyncIndex", sy, keys)

	sh, err := LoadSharded(8, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	testZeroAllocReads(t, "ShardedIndex", sh, keys)
}

// The locked fallback path must stay allocation free too: it is what
// every read becomes under the race detector and heavy write pressure.
func TestZeroAllocLockedReadPaths(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; assertions hold on normal builds only")
	}
	keys := allocKeys(20000)

	sy, err := LoadSync(keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	sy.SetOptimisticReads(false)
	testZeroAllocReads(t, "SyncIndex(locked)", sy, keys)

	sh, err := LoadSharded(8, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh.SetOptimisticReads(false)
	testZeroAllocReads(t, "ShardedIndex(locked)", sh, keys)
}

type writeSurface interface {
	Insert(key float64, payload uint64) bool
	Delete(key float64) bool
	Update(key float64, payload uint64) bool
}

// Point writes on both wrappers must not allocate either: Insert into a
// leaf with room claims a gap in place, Delete clears a slot, and
// Update overwrites a payload. The wrappers once routed Insert and
// Delete through Apply, whose one-element key and payload arrays
// escaped to the heap through the batch closures.
func TestZeroAllocPointWrites(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; assertions hold on normal builds only")
	}
	keys := allocKeys(20000)
	sy, err := LoadSync(keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := LoadSharded(8, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		idx  writeSurface
	}{{"SyncIndex", sy}, {"ShardedIndex", sh}} {
		// Fresh keys between the stored ones in the middle of the key
		// space: each Insert claims a gap of a leaf with room, and each
		// Delete removes one of those keys again.
		fresh := func(i int) float64 { return keys[len(keys)/2+i] + 0.5 }
		ins, del := 0, 0
		assertZeroAlloc(t, c.name+".Insert", func() {
			c.idx.Insert(fresh(ins), 1)
			ins++
		})
		assertZeroAlloc(t, c.name+".Delete", func() {
			c.idx.Delete(fresh(del))
			del++
		})
		i := 0
		assertZeroAlloc(t, c.name+".Update", func() {
			i++
			c.idx.Update(keys[(i*31)%len(keys)], uint64(i))
		})
	}
}
