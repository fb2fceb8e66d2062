package bitmapx

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// reference is a naive bool-slice implementation used to cross-check.
type reference []bool

func (r reference) nextSet(i int) int {
	if i < 0 {
		i = 0
	}
	for ; i < len(r); i++ {
		if r[i] {
			return i
		}
	}
	return -1
}

func (r reference) prevSet(i int) int {
	if i >= len(r) {
		i = len(r) - 1
	}
	for ; i >= 0; i-- {
		if r[i] {
			return i
		}
	}
	return -1
}

func (r reference) nextClear(i int) int {
	if i < 0 {
		i = 0
	}
	for ; i < len(r); i++ {
		if !r[i] {
			return i
		}
	}
	return -1
}

func (r reference) prevClear(i int) int {
	if i >= len(r) {
		i = len(r) - 1
	}
	for ; i >= 0; i-- {
		if !r[i] {
			return i
		}
	}
	return -1
}

func (r reference) countRange(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > len(r) {
		hi = len(r)
	}
	c := 0
	for i := lo; i < hi; i++ {
		if r[i] {
			c++
		}
	}
	return c
}

func TestBasicSetClearTest(t *testing.T) {
	b := New(130)
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatalf("fresh bitmap Len=%d Count=%d", b.Len(), b.Count())
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Test(0) || !b.Test(64) || !b.Test(129) || b.Test(1) {
		t.Fatal("Test after Set wrong")
	}
	if b.Count() != 3 {
		t.Fatalf("Count = %d, want 3", b.Count())
	}
	b.Set(64) // idempotent
	if b.Count() != 3 {
		t.Fatalf("double-set Count = %d", b.Count())
	}
	b.Clear(64)
	if b.Test(64) || b.Count() != 2 {
		t.Fatalf("after Clear: Test=%v Count=%d", b.Test(64), b.Count())
	}
	b.Clear(64) // idempotent
	if b.Count() != 2 {
		t.Fatalf("double-clear Count = %d", b.Count())
	}
	if b.Test(-1) || b.Test(1000) {
		t.Fatal("out-of-range Test must be false")
	}
}

func TestPanicsOnOutOfRange(t *testing.T) {
	b := New(10)
	for _, f := range []func(){func() { b.Set(10) }, func() { b.Set(-1) }, func() { b.Clear(10) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestScansAgainstReference(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 200, 513} {
		b := New(n)
		ref := make(reference, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				b.Set(i)
				ref[i] = true
			}
		}
		for i := -2; i <= n+2; i++ {
			if got, want := b.NextSet(i), ref.nextSet(i); got != want {
				t.Fatalf("n=%d NextSet(%d) = %d, want %d", n, i, got, want)
			}
			if got, want := b.PrevSet(i), ref.prevSet(i); got != want {
				t.Fatalf("n=%d PrevSet(%d) = %d, want %d", n, i, got, want)
			}
			if got, want := b.NextClear(i), ref.nextClear(i); got != want {
				t.Fatalf("n=%d NextClear(%d) = %d, want %d", n, i, got, want)
			}
			if got, want := b.PrevClear(i), ref.prevClear(i); got != want {
				t.Fatalf("n=%d PrevClear(%d) = %d, want %d", n, i, got, want)
			}
		}
	}
}

func TestNextClearRespectsCapacity(t *testing.T) {
	b := New(70) // 70 bits across 2 words; bits 70..127 of word 1 are "phantom"
	for i := 0; i < 70; i++ {
		b.Set(i)
	}
	if got := b.NextClear(0); got != -1 {
		t.Fatalf("full bitmap NextClear = %d, want -1", got)
	}
	b.Clear(69)
	if got := b.NextClear(0); got != 69 {
		t.Fatalf("NextClear = %d, want 69", got)
	}
}

func TestCountRange(t *testing.T) {
	n := 300
	b := New(n)
	ref := make(reference, n)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			b.Set(i)
			ref[i] = true
		}
	}
	for trial := 0; trial < 500; trial++ {
		lo := rng.Intn(n+10) - 5
		hi := rng.Intn(n+10) - 5
		if got, want := b.CountRange(lo, hi), ref.countRange(lo, hi); got != want {
			t.Fatalf("CountRange(%d,%d) = %d, want %d", lo, hi, got, want)
		}
	}
	if got := b.CountRange(0, n); got != b.Count() {
		t.Fatalf("full CountRange %d != Count %d", got, b.Count())
	}
}

func TestReset(t *testing.T) {
	b := New(100)
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	b.Reset()
	if b.Count() != 0 || b.NextSet(0) != -1 {
		t.Fatal("Reset did not clear")
	}
}

func TestSizeBytes(t *testing.T) {
	for _, c := range []struct{ n, want int }{{64, 8}, {65, 16}, {0, 0}} {
		b := New(c.n)
		if got := b.SizeBytes(); got != c.want {
			t.Fatalf("SizeBytes(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// A copied Bitmap shares its words; Clone must not. Data nodes hold
// their bitmap by value, so a clone-on-write that only copied the
// struct would let the writer flip bits a snapshot still reads.
func TestCloneIsDeep(t *testing.T) {
	b := New(130)
	b.Set(3)
	b.Set(129)
	c := b.Clone()
	c.Set(64)
	c.Clear(3)
	if !b.Test(3) || b.Test(64) || b.Count() != 2 {
		t.Fatalf("writing the clone changed the original: bit3=%v bit64=%v count=%d", b.Test(3), b.Test(64), b.Count())
	}
	if c.Test(3) || !c.Test(64) || !c.Test(129) || c.Count() != 2 || c.Len() != 130 {
		t.Fatal("clone lost state")
	}
}

// Property: for random operation sequences, Count always equals the number
// of distinct set positions and NextSet/NextClear agree with the reference.
func TestQuickOpSequence(t *testing.T) {
	f := func(ops []uint16, probe uint16) bool {
		const n = 257
		b := New(n)
		ref := make(reference, n)
		for _, op := range ops {
			i := int(op) % n
			if op&0x8000 != 0 {
				b.Clear(i)
				ref[i] = false
			} else {
				b.Set(i)
				ref[i] = true
			}
		}
		p := int(probe) % (n + 4)
		return b.Count() == ref.countRange(0, n) &&
			b.NextSet(p) == ref.nextSet(p) &&
			b.NextClear(p) == ref.nextClear(p) &&
			b.PrevSet(p) == ref.prevSet(p) &&
			b.PrevClear(p) == ref.prevClear(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNextSetSparse(b *testing.B) {
	bm := New(1 << 20)
	for i := 0; i < bm.Len(); i += 1024 {
		bm.Set(i)
	}
	b.ResetTimer()
	pos := 0
	for i := 0; i < b.N; i++ {
		pos = bm.NextSet(pos + 1)
		if pos < 0 {
			pos = 0
		}
	}
}
