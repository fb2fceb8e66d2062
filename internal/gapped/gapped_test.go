package gapped

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func buildSorted(n int, seed int64) ([]float64, []uint64) {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[float64]bool, n)
	keys := make([]float64, 0, n)
	for len(keys) < n {
		k := rng.Float64() * 1e6
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Float64s(keys)
	payloads := make([]uint64, n)
	for i := range payloads {
		payloads[i] = uint64(i) + 1
	}
	return keys, payloads
}

// leaf holds an array the way a tree leaf does: when a copy-on-write
// writer builds a replacement, the replacement becomes the live array.
type leaf struct{ *Array }

func newLeaf(cfg Config) *leaf { return &leaf{New(cfg)} }

// adopt installs the replacement a batch writer built, if any, and
// passes its count through.
func (l *leaf) adopt(repl *Array, n int) int {
	if repl != nil {
		l.Array = repl
	}
	return n
}

func (l *leaf) insert(key float64, payload uint64) bool {
	repl, ok := l.InsertCOW(key, payload)
	if repl != nil {
		l.Array = repl
	}
	return ok
}

func (l *leaf) del(key float64) bool {
	repl, ok := l.DeleteCOW(key)
	if repl != nil {
		l.Array = repl
	}
	return ok
}

func TestBulkLoadAndLookup(t *testing.T) {
	keys, payloads := buildSorted(5000, 1)
	a := NewFromSorted(keys, payloads, Config{})
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if a.Num() != len(keys) {
		t.Fatalf("Num = %d, want %d", a.Num(), len(keys))
	}
	for i, k := range keys {
		v, ok := a.Lookup(k)
		if !ok || v != payloads[i] {
			t.Fatalf("Lookup(%v) = (%v, %v), want (%v, true)", k, v, ok, payloads[i])
		}
	}
	if _, ok := a.Lookup(-1); ok {
		t.Fatal("lookup of absent key succeeded")
	}
	if _, ok := a.Lookup(2e6); ok {
		t.Fatal("lookup beyond max succeeded")
	}
}

// TestRetrainsCountRebuildsOnly: building a node is not a retrain;
// each copy-on-write rebuild of an existing node's model — retrain,
// merge, expansion, contraction — counts exactly one.
func TestRetrainsCountRebuildsOnly(t *testing.T) {
	keys, payloads := buildSorted(2000, 3)
	l := &leaf{NewFromSorted(keys, payloads, Config{})}
	retrains := func() uint64 { return l.Stats.Retrains }
	if r := retrains(); r != 0 {
		t.Fatalf("fresh node Retrains = %d, want 0", r)
	}
	for _, step := range []struct {
		name string
		do   func()
	}{
		{"RetrainCOW", func() { l.Array = l.RetrainCOW() }},
		{"MergeSortedCOW", func() { l.adopt(l.MergeSortedCOW([]float64{-1}, []uint64{1})) }},
		{"InsertSortedBatchCOW past the limit", func() {
			l.adopt(l.InsertSortedBatchCOW(keys[:1500], payloads[:1500]))
		}},
		{"InsertCOW expansion", func() {
			for k, c := -2.0, l.Cap(); l.Cap() == c; k-- {
				l.insert(k, 1)
			}
		}},
		{"DeleteCOW contraction", func() {
			for i, c := 0, l.Cap(); l.Cap() == c; i++ {
				l.del(keys[i])
			}
		}},
	} {
		before := retrains()
		step.do()
		if got := retrains() - before; got != 1 {
			t.Fatalf("%s added %d retrains, want 1", step.name, got)
		}
	}
}

func TestBulkLoadDensity(t *testing.T) {
	keys, payloads := buildSorted(10000, 2)
	a := NewFromSorted(keys, payloads, Config{Density: 0.8})
	want := float64(len(keys)) / (0.8 * 0.8)
	if got := float64(a.Cap()); got < want || got > want+2 {
		t.Fatalf("capacity %v, want ~%v (density d²)", got, want)
	}
}

func TestInsertIntoEmpty(t *testing.T) {
	a := newLeaf(Config{})
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	keys := []float64{5, 3, 9, 1, 7, 2, 8, 4, 6, 0}
	for i, k := range keys {
		if !a.insert(k, uint64(i)) {
			t.Fatalf("Insert(%v) returned false", k)
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("after Insert(%v): %v", k, err)
		}
	}
	for i, k := range keys {
		if v, ok := a.Lookup(k); !ok || v != uint64(i) {
			t.Fatalf("Lookup(%v) = (%v,%v)", k, v, ok)
		}
	}
}

func TestInsertDuplicateOverwrites(t *testing.T) {
	a := newLeaf(Config{})
	if !a.insert(42, 1) {
		t.Fatal("first insert")
	}
	if a.insert(42, 2) {
		t.Fatal("duplicate insert should return false")
	}
	if v, _ := a.Lookup(42); v != 2 {
		t.Fatalf("payload after duplicate insert = %d, want 2", v)
	}
	if a.Num() != 1 {
		t.Fatalf("Num = %d, want 1", a.Num())
	}
}

func TestInsertNonFinitePanics(t *testing.T) {
	a := New(Config{})
	for _, k := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Insert(%v) did not panic", k)
				}
			}()
			a.InsertCOW(k, 0)
		}()
	}
}

func TestDensityLimitMaintained(t *testing.T) {
	a := newLeaf(Config{Density: 0.75})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		a.insert(rng.Float64()*1e9, uint64(i))
		if d := a.Density(); a.Cap() > 8 && d > 0.75+1e-9 {
			t.Fatalf("density %v exceeds limit after %d inserts", d, i+1)
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if a.Stats.Expands == 0 {
		t.Fatal("no expansions recorded")
	}
}

func TestDeleteAndContract(t *testing.T) {
	keys, payloads := buildSorted(8000, 4)
	a := &leaf{NewFromSorted(keys, payloads, Config{})}
	capBefore := a.Cap()
	for _, k := range keys[:7600] {
		if !a.del(k) {
			t.Fatalf("Delete(%v) failed", k)
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if a.Cap() >= capBefore {
		t.Fatalf("no contraction: cap %d -> %d", capBefore, a.Cap())
	}
	if a.Stats.Contracts == 0 {
		t.Fatal("contraction not counted")
	}
	for _, k := range keys[7600:] {
		if _, ok := a.Lookup(k); !ok {
			t.Fatalf("surviving key %v lost after contraction", k)
		}
	}
	if a.del(keys[0]) {
		t.Fatal("deleting absent key succeeded")
	}
}

func TestDeleteAllThenReinsert(t *testing.T) {
	a := newLeaf(Config{})
	for i := 0; i < 100; i++ {
		a.insert(float64(i), uint64(i))
	}
	for i := 0; i < 100; i++ {
		if !a.del(float64(i)) {
			t.Fatalf("Delete(%d)", i)
		}
	}
	if a.Num() != 0 {
		t.Fatalf("Num = %d after deleting all", a.Num())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		a.insert(float64(i)+0.5, uint64(i))
	}
	if a.Num() != 50 {
		t.Fatalf("Num = %d after reinsert", a.Num())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdate(t *testing.T) {
	a := newLeaf(Config{})
	a.insert(1, 10)
	if !a.Update(1, 99) {
		t.Fatal("Update existing failed")
	}
	if v, _ := a.Lookup(1); v != 99 {
		t.Fatalf("payload = %d", v)
	}
	if a.Update(2, 0) {
		t.Fatal("Update of absent key succeeded")
	}
}

func TestScanFrom(t *testing.T) {
	keys, payloads := buildSorted(2000, 5)
	a := NewFromSorted(keys, payloads, Config{})
	// Scan 100 elements from the 500th key.
	var got []float64
	a.ScanFrom(keys[500], func(k float64, v uint64) bool {
		got = append(got, k)
		return len(got) < 100
	})
	if len(got) != 100 {
		t.Fatalf("scan visited %d, want 100", len(got))
	}
	for i, k := range got {
		if k != keys[500+i] {
			t.Fatalf("scan[%d] = %v, want %v", i, k, keys[500+i])
		}
	}
	// Scan from between keys starts at the next element.
	mid := (keys[10] + keys[11]) / 2
	var first float64 = -1
	a.ScanFrom(mid, func(k float64, v uint64) bool { first = k; return false })
	if first != keys[11] {
		t.Fatalf("scan from midpoint started at %v, want %v", first, keys[11])
	}
	// Scan past the end visits nothing.
	count := 0
	a.ScanFrom(keys[len(keys)-1]+1, func(k float64, v uint64) bool { count++; return true })
	if count != 0 {
		t.Fatalf("scan past end visited %d", count)
	}
}

func TestMinMaxKey(t *testing.T) {
	keys, payloads := buildSorted(100, 6)
	a := NewFromSorted(keys, payloads, Config{})
	if k, ok := a.MinKey(); !ok || k != keys[0] {
		t.Fatalf("MinKey = %v,%v", k, ok)
	}
	if k, ok := a.MaxKey(); !ok || k != keys[99] {
		t.Fatalf("MaxKey = %v,%v", k, ok)
	}
	e := New(Config{})
	if _, ok := e.MinKey(); ok {
		t.Fatal("MinKey on empty")
	}
}

func TestPredictionErrorAfterBulkLoad(t *testing.T) {
	// On perfectly linear data, model-based placement should give
	// near-zero prediction error (Theorem 1 / Fig 7b).
	n := 10000
	keys := make([]float64, n)
	payloads := make([]uint64, n)
	for i := range keys {
		keys[i] = float64(i) * 10
	}
	a := NewFromSorted(keys, payloads, Config{})
	var sum int
	for _, k := range keys {
		e, ok := a.PredictionError(k)
		if !ok {
			t.Fatalf("key %v missing", k)
		}
		sum += e
	}
	if avg := float64(sum) / float64(n); avg > 1.0 {
		t.Fatalf("mean prediction error %v on linear data, want <= 1", avg)
	}
}

func TestDensityForOverhead(t *testing.T) {
	cases := []struct{ overhead, wantLo, wantHi float64 }{
		{0.43, 0.75, 0.85},
		{0.20, 0.85, 0.95},
		{1.0, 0.55, 0.65},
		{2.0, 0.40, 0.52},
	}
	for _, c := range cases {
		d := DensityForOverhead(c.overhead)
		if d < c.wantLo || d > c.wantHi {
			t.Fatalf("DensityForOverhead(%v) = %v, want in [%v,%v]", c.overhead, d, c.wantLo, c.wantHi)
		}
		// Round trip: average density (d+d²)/2 should equal 1/(1+overhead).
		avg := (d + d*d) / 2
		if math.Abs(avg-1/(1+c.overhead)) > 1e-9 {
			t.Fatalf("round trip failed for %v: avg %v", c.overhead, avg)
		}
	}
	if d := DensityForOverhead(0); d != 1 {
		t.Fatalf("zero overhead density = %v", d)
	}
}

// Property test: a gapped array under a random workload of inserts,
// deletes, updates and lookups behaves exactly like a sorted map.
func TestQuickAgainstReferenceMap(t *testing.T) {
	type op struct {
		Kind    uint8
		Key     uint16
		Payload uint64
	}
	f := func(ops []op) bool {
		a := newLeaf(Config{Density: 0.7})
		ref := make(map[float64]uint64)
		for _, o := range ops {
			k := float64(o.Key % 512) // force collisions and re-inserts
			switch o.Kind % 4 {
			case 0:
				ins := a.insert(k, o.Payload)
				_, existed := ref[k]
				if ins == existed {
					t.Logf("insert mismatch at key %v: ins=%v existed=%v", k, ins, existed)
					return false
				}
				ref[k] = o.Payload
			case 1:
				del := a.del(k)
				_, existed := ref[k]
				if del != existed {
					return false
				}
				delete(ref, k)
			case 2:
				upd := a.Update(k, o.Payload)
				_, existed := ref[k]
				if upd != existed {
					return false
				}
				if existed {
					ref[k] = o.Payload
				}
			case 3:
				v, ok := a.Lookup(k)
				want, existed := ref[k]
				if ok != existed || (ok && v != want) {
					return false
				}
			}
		}
		if a.Num() != len(ref) {
			return false
		}
		if err := a.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		// Full scan must enumerate the reference in sorted order.
		want := make([]float64, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		sort.Float64s(want)
		got := make([]float64, 0, len(ref))
		a.ScanFrom(math.Inf(-1), func(k float64, v uint64) bool {
			got = append(got, k)
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] || ref[got[i]] == 0 && false {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: shift counts stay bounded under uniform random inserts (the
// O(log n) w.h.p. claim of §3.3.1 — verified loosely as average shifts
// per insert being far below n).
func TestShiftsBoundedUnderUniformInserts(t *testing.T) {
	a := newLeaf(Config{})
	rng := rand.New(rand.NewSource(9))
	n := 50000
	for i := 0; i < n; i++ {
		a.insert(rng.Float64(), uint64(i))
	}
	perInsert := float64(a.Stats.Shifts) / float64(n)
	if perInsert > 50 {
		t.Fatalf("average shifts per uniform insert = %v, want small", perInsert)
	}
}

func BenchmarkInsertUniform(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	a := newLeaf(Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.insert(rng.Float64()*1e12, uint64(i))
	}
}

func BenchmarkLookup(b *testing.B) {
	keys, payloads := buildSorted(1<<17, 11)
	a := NewFromSorted(keys, payloads, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Lookup(keys[i&(len(keys)-1)])
	}
}
