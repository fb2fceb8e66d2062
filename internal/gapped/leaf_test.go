package gapped

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildAt lays keys out at an explicit capacity, numbering payloads
// from 1. Its density limit is 1, so the tests of the placement
// primitives can fill an array past any real limit.
func buildAt(keys []float64, capacity int) *Array {
	b := &Array{cfg: Config{Density: 1}}
	payloads := make([]uint64, len(keys))
	for i := range payloads {
		payloads[i] = uint64(i) + 1
	}
	b.build(keys, payloads, capacity)
	return b
}

func seq(n int, step float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) * step
	}
	return out
}

func TestBuildEmpty(t *testing.T) {
	b := buildAt(nil, 10)
	if b.Cap() != 10 || b.Num() != 0 {
		t.Fatalf("cap=%d num=%d", b.Cap(), b.Num())
	}
	for i, sl := range b.Slots {
		if sl != (Slot{Key: math.Inf(1)}) {
			t.Fatalf("slot %d not a {+Inf, 0} tail fill: %+v", i, sl)
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Lookup(1); ok {
		t.Fatal("lookup on empty")
	}
	if _, ok := b.Lookup(math.Inf(1)); ok {
		t.Fatal("lookup of +Inf hit a tail fill")
	}
	if _, ok := b.MinKey(); ok {
		t.Fatal("MinKey on empty")
	}
	if _, ok := b.MaxKey(); ok {
		t.Fatal("MaxKey on empty")
	}
}

func TestBuildMinCapacity(t *testing.T) {
	b := buildAt(nil, 0)
	if b.Cap() < 1 {
		t.Fatal("capacity floor")
	}
}

func TestBuildPlacesModelBased(t *testing.T) {
	keys := seq(1000, 2)
	b := buildAt(keys, 2000)
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !b.HasModel {
		t.Fatal("1000-key node should have a model")
	}
	// Perfectly linear data at 2x capacity: keys should sit very near
	// their predicted slot (Theorem 1 regime).
	var sumErr int
	for _, k := range keys {
		e, ok := b.PredictionError(k)
		if !ok {
			t.Fatalf("key %v missing", k)
		}
		sumErr += e
	}
	if avg := float64(sumErr) / float64(len(keys)); avg > 0.5 {
		t.Fatalf("mean placement error %v on linear data with 2x space", avg)
	}
}

func TestColdStartHasNoModel(t *testing.T) {
	keys := seq(MinModelKeys-1, 1)
	b := buildAt(keys, 64)
	if b.HasModel {
		t.Fatalf("%d-key node should be model-less (cold start)", len(keys))
	}
	// Lookups still work through plain binary search.
	for _, k := range keys {
		if _, ok := b.Lookup(k); !ok {
			t.Fatalf("cold-start lookup of %v failed", k)
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGapFillInvariantAfterDeletes(t *testing.T) {
	keys := seq(100, 1)
	b := buildAt(keys, 200)
	// Delete a run in the middle; fills behind it must repair.
	for i := 40; i < 60; i++ {
		if !b.removeKey(float64(i)) {
			t.Fatalf("Delete(%d)", i)
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Delete the maximum repeatedly; trailing fills become +Inf.
	for i := 99; i >= 90; i-- {
		if !b.removeKey(float64(i)) {
			t.Fatalf("Delete(%d)", i)
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if k, _ := b.MaxKey(); k != 89 {
		t.Fatalf("MaxKey = %v", k)
	}
}

func TestPlaceModelBasedDuplicate(t *testing.T) {
	b := buildAt(seq(50, 1), 100)
	if b.placeModelBased(25, 999) {
		t.Fatal("a stored key was reported as added")
	}
	if v, _ := b.Lookup(25); v != 999 {
		t.Fatalf("payload not overwritten: %d", v)
	}
	if b.Num() != 50 {
		t.Fatalf("Num changed: %d", b.Num())
	}
}

// The writers' density policy always leaves a gap, so placing into a
// full array is a bug the placement reports loudly.
func TestPlaceModelBasedPanicsWhenFull(t *testing.T) {
	keys := seq(10, 1)
	b := buildAt(keys, 10) // zero gaps
	defer func() {
		if recover() == nil {
			t.Fatal("placing into a full array did not panic")
		}
	}()
	b.placeModelBased(3.5, 1)
}

func TestInsertBeyondMaxWithFullTail(t *testing.T) {
	// A node whose last slot is occupied gets a key larger than
	// everything: its lower bound is past the end, so the shift-left
	// path must engage.
	b := buildAt(nil, 8)
	for i := 2; i < 8; i++ {
		b.Slots[i] = Slot{float64(i), uint64(i)}
		b.Occ.Set(i)
		b.NumKeys++
	}
	b.repairAllFills()
	if !b.placeModelBased(8, 7) {
		t.Fatal("new key reported as stored")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if k, _ := b.MaxKey(); k != 8 || b.Slots[7] != (Slot{8, 7}) || b.Stats.Shifts != 6 {
		t.Fatalf("MaxKey = %v, slot 7 = %+v, shifts = %d; want 8, {8 7}, 6", k, b.Slots[7], b.Stats.Shifts)
	}
}

func TestShiftReachesNearestGap(t *testing.T) {
	// A key whose insertion range lies inside a full run must shift the
	// run toward the nearest gap, however far it is.
	b := buildAt(nil, 16)
	// Occupy slots 0..7 with keys 0..7 (a full "segment"), leave 8..15 free.
	for i := 0; i < 8; i++ {
		b.Slots[i] = Slot{float64(i), uint64(i)}
		b.Occ.Set(i)
		b.NumKeys++
	}
	b.repairAllFills()
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Key 3.5's lower bound is slot 4, inside the full run [0, 8): keys
	// 4..7 shift right into the gap at slot 8.
	if !b.placeModelBased(3.5, 9) {
		t.Fatal("new key reported as stored")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if b.Slots[4] != (Slot{3.5, 9}) || b.Slots[8] != (Slot{7, 7}) || b.Stats.Shifts != 4 {
		t.Fatalf("slot 4 = %+v, slot 8 = %+v, shifts = %d; want {3.5 9}, {7 7}, 4", b.Slots[4], b.Slots[8], b.Stats.Shifts)
	}
}

func TestScanFromStopsEarly(t *testing.T) {
	b := buildAt(seq(100, 1), 200)
	count := 0
	stopped := b.ScanFrom(10, func(k float64, v uint64) bool {
		count++
		return count < 5
	})
	if !stopped || count != 5 {
		t.Fatalf("stopped=%v count=%d", stopped, count)
	}
	stopped = b.ScanFrom(95, func(k float64, v uint64) bool { return true })
	if stopped {
		t.Fatal("scan to the end should report not-stopped")
	}
}

func TestCollectIntoProvidedSlices(t *testing.T) {
	b := buildAt(seq(10, 1), 20)
	keys := make([]float64, 0, 16)
	payloads := make([]uint64, 0, 16)
	keys, payloads = b.Collect(keys, payloads)
	if len(keys) != 10 || len(payloads) != 10 {
		t.Fatalf("collected %d/%d", len(keys), len(payloads))
	}
	for i := range keys {
		if keys[i] != float64(i) || payloads[i] != uint64(i)+1 {
			t.Fatalf("collect[%d] = %v,%v", i, keys[i], payloads[i])
		}
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Shifts: 1, Expands: 2, Contracts: 3, Retrains: 5, Inserts: 6, Deletes: 7}
	var b Stats
	b.Add(&a)
	b.Add(&a)
	if b.Shifts != 2 || b.Deletes != 14 || b.Retrains != 10 {
		t.Fatalf("Add: %+v", b)
	}
}

func TestDataSizeBytes(t *testing.T) {
	b := buildAt(seq(10, 1), 64)
	want8 := 64*8 + 64*8 + b.Occ.SizeBytes()
	if got := b.DataSizeBytes(8); got != want8 {
		t.Fatalf("DataSizeBytes(8) = %d, want %d", got, want8)
	}
	if b.DataSizeBytes(80) <= want8 {
		t.Fatal("80-byte payload accounting too small")
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	b := buildAt(seq(20, 1), 40)
	// Corrupt a gap fill's key.
	gap := b.Occ.NextClear(0)
	b.Slots[gap].Key = -1
	if err := b.CheckInvariants(); err == nil {
		t.Fatal("corrupt fill not detected")
	}
	// Corrupt only a gap fill's payload: a point read hitting the fill
	// would return it, so the invariant must cover payloads too.
	b1 := buildAt(seq(20, 1), 40)
	gap = b1.Occ.NextClear(0)
	b1.Slots[gap].Payload++
	if err := b1.CheckInvariants(); err == nil {
		t.Fatal("stale fill payload not detected")
	}
	// A tail fill must be exactly {+Inf, 0}.
	b3 := buildAt(seq(20, 1), 40)
	b3.Slots[len(b3.Slots)-1].Payload = 1
	if err := b3.CheckInvariants(); err == nil {
		t.Fatal("nonzero tail payload not detected")
	}
	// Corrupt the count.
	b2 := buildAt(seq(20, 1), 40)
	b2.NumKeys++
	if err := b2.CheckInvariants(); err == nil {
		t.Fatal("count mismatch not detected")
	}
}

func TestUpdateAndAccessors(t *testing.T) {
	b := buildAt(seq(50, 2), 100)
	if !b.Update(48, 777) {
		t.Fatal("update existing")
	}
	if v, _ := b.Lookup(48); v != 777 {
		t.Fatalf("payload = %d", v)
	}
	if b.Update(49, 1) {
		t.Fatal("update absent")
	}
	// Building a node is not a retrain; rebuilding an existing one is.
	if b.Stats.Retrains != 0 {
		t.Fatal("a fresh build counted a retrain")
	}
	if r := b.RetrainCOW().Stats.Retrains; r != 1 {
		t.Fatalf("Retrains after one rebuild = %d, want 1", r)
	}
	if d := b.Density(); d != 0.5 {
		t.Fatalf("Density = %v", d)
	}
	// NextSlot/At traverse exactly the occupied slots in order.
	count := 0
	prev := math.Inf(-1)
	for s := b.NextSlot(-1); s >= 0; s = b.NextSlot(s) {
		k, _ := b.At(s)
		if k <= prev {
			t.Fatal("NextSlot out of order")
		}
		prev = k
		count++
	}
	if count != 50 {
		t.Fatalf("NextSlot visited %d", count)
	}
	// At on a gap panics.
	gap := b.Occ.NextClear(0)
	defer func() {
		if recover() == nil {
			t.Fatal("At(gap) did not panic")
		}
	}()
	b.At(gap)
}

// Property: build round-trips any strictly increasing key set at any
// capacity >= n.
func TestQuickBuildRoundTrip(t *testing.T) {
	f := func(raw []uint32, extraCap uint8) bool {
		seen := make(map[float64]bool)
		keys := make([]float64, 0, len(raw))
		for _, v := range raw {
			k := float64(v)
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		// build requires sorted input.
		for i := 1; i < len(keys); i++ {
			if keys[i] < keys[i-1] {
				// insertion sort the small slice
				for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
					keys[j], keys[j-1] = keys[j-1], keys[j]
				}
			}
		}
		b := buildAt(keys, len(keys)+int(extraCap))
		if err := b.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		for _, k := range keys {
			if _, ok := b.Lookup(k); !ok {
				return false
			}
		}
		gotKeys, _ := b.Collect(nil, nil)
		if len(gotKeys) != len(keys) {
			return false
		}
		for i := range keys {
			if gotKeys[i] != keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestVerBracketsInPlaceWrites checks the writer half of the seqlock:
// every in-place slot write (gap claim, shift, payload overwrite,
// delete, update) advances Ver by one odd-even pair, and an operation
// that writes no slot (a miss, a full node) leaves it alone.
func TestVerBracketsInPlaceWrites(t *testing.T) {
	b := buildAt(seq(32, 2), 48)
	step := func(what string, want uint64, f func()) {
		t.Helper()
		before := b.Ver
		f()
		if got := b.Ver - before; got != want {
			t.Fatalf("%s: Ver advanced by %d, want %d", what, got, want)
		}
	}
	step("gap claim", 2, func() { b.placeModelBased(1, 1) })
	step("duplicate", 2, func() { b.placeModelBased(1, 9) })
	step("update", 2, func() { b.Update(4, 9) })
	step("update miss", 0, func() { b.Update(5, 9) })
	step("delete", 2, func() { b.removeKey(4) })
	step("delete miss", 0, func() { b.removeKey(5) })
	for k := 0.25; b.NumKeys < b.Cap(); k += 0.25 {
		step("fill", 2, func() { b.placeModelBased(k, 1) })
	}
	step("full", 0, func() {
		defer func() { _ = recover() }()
		b.placeModelBased(1000, 1)
	})
	if _, _, valid := b.LookupValidated(1); !valid {
		t.Fatal("LookupValidated invalid with no writer")
	}
}

// TestSlotFillPropertyRandomOps drives one node through seeded random
// copy-on-write inserts (new keys and duplicates, with the expansions
// they trigger), updates, deletes and retrains, checking the invariants
// — the whole-slot fill rule included — after every operation and every
// stored payload against a reference map. Updates and duplicate inserts
// write fresh payloads, so a write that skips the gap run left of its
// element leaves a stale fill behind and fails here.
func TestSlotFillPropertyRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := seq(64, 4)
		b := buildAt(keys, 96)
		b.cfg = Config{Density: DefaultDensity}
		ref := make(map[float64]uint64, len(keys))
		for i, k := range keys {
			ref[k] = uint64(i) + 1
		}
		// Clustered keys between the grid points crowd runs together,
		// so inserts also take the shift path.
		key := func() float64 {
			if rng.Intn(3) == 0 {
				return 100 + float64(rng.Intn(64))/16
			}
			return float64(rng.Intn(400)) * 0.75
		}
		for op := 0; op < 3000; op++ {
			k := key()
			v := rng.Uint64()
			what := ""
			switch r := rng.Intn(20); {
			case r < 2:
				// A duplicate insert of a stored key, the case that must
				// rewrite the fills left of the element.
				what = "duplicate "
				for try := 0; try < 64; try++ {
					if _, had := ref[k]; had {
						break
					}
					k = key()
				}
				fallthrough
			case r < 10:
				what += "insert"
				_, had := ref[k]
				var added bool
				b = cow(t, b, func() (repl *Array) {
					repl, added = b.InsertCOW(k, v)
					return repl
				})
				if added == had {
					t.Fatalf("seed %d op %d: InsertCOW(%v) added = %v, key stored = %v", seed, op, k, added, had)
				}
				ref[k] = v
			case r < 14:
				what = "update"
				_, had := ref[k]
				if got := b.Update(k, v); got != had {
					t.Fatalf("seed %d op %d: Update(%v) = %v, want %v", seed, op, k, got, had)
				}
				if had {
					ref[k] = v
				}
			case r < 19:
				what = "delete"
				_, had := ref[k]
				repl, got := b.DeleteCOW(k)
				if got != had {
					t.Fatalf("seed %d op %d: DeleteCOW(%v) = %v, want %v", seed, op, k, got, had)
				}
				if repl != nil {
					b = repl
				}
				delete(ref, k)
			default:
				what = "retrain"
				b = cow(t, b, b.RetrainCOW)
			}
			if err := b.CheckInvariants(); err != nil {
				t.Fatalf("seed %d op %d (%s %v): %v", seed, op, what, k, err)
			}
			got, ok := b.Lookup(k)
			if want, had := ref[k]; ok != had || got != want {
				t.Fatalf("seed %d op %d (%s %v): Lookup = %d,%v; want %d,%v", seed, op, what, k, got, ok, want, had)
			}
			if b.Num() != len(ref) {
				t.Fatalf("seed %d op %d: Num = %d, want %d", seed, op, b.Num(), len(ref))
			}
		}
		for k, want := range ref {
			if got, ok := b.Lookup(k); !ok || got != want {
				t.Fatalf("seed %d: final Lookup(%v) = %d,%v; want %d", seed, k, got, ok, want)
			}
		}
	}
}

// cow runs a copy-on-write writer on b and returns the live array after
// it. When the writer built a replacement, the original — which a
// snapshot may still read — must be exactly as it was, and still valid.
func cow(t *testing.T, b *Array, write func() *Array) *Array {
	t.Helper()
	before := append([]Slot(nil), b.Slots...)
	repl := write()
	if repl == nil {
		return b
	}
	if len(b.Slots) != len(before) {
		t.Fatalf("building the replacement resized the original: %d -> %d slots", len(before), len(b.Slots))
	}
	for i := range before {
		if b.Slots[i] != before[i] {
			t.Fatalf("building the replacement changed the original at slot %d", i)
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("original after building the replacement: %v", err)
	}
	return repl
}

// TestCloneForWriteIsDeep pins the clone-on-write contract now that
// the bitmap is held by value: the clone of a sealed array is unsealed,
// and writes to it — slots and occupancy — never reach the original.
func TestCloneForWriteIsDeep(t *testing.T) {
	b := buildAt(seq(40, 1), 64)
	b.Seal()
	c := b.CloneForWrite()
	if !b.Sealed() || c.Sealed() {
		t.Fatalf("sealed: original %v, clone %v; want true, false", b.Sealed(), c.Sealed())
	}
	if !c.removeKey(5) || !c.removeKey(20) || !c.placeModelBased(5.5, 1) || !c.Update(7, 99) {
		t.Fatal("writes to the clone failed")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("original after writing the clone: %v", err)
	}
	if v, ok := b.Lookup(5); !ok || v != 6 {
		t.Fatalf("original Lookup(5) = %d,%v; want 6,true", v, ok)
	}
	if _, ok := b.Lookup(5.5); ok || b.Num() != 40 {
		t.Fatal("insert into the clone reached the original")
	}
	if v, ok := b.Lookup(20); !ok || v != 21 {
		t.Fatalf("original Lookup(20) = %d,%v; want 21,true", v, ok)
	}
	if v, _ := b.Lookup(7); v != 8 {
		t.Fatalf("update of the clone reached the original: %d", v)
	}
}
