// Package bitmapx implements the occupancy bitmap ALEX keeps per data
// node (§5.2.3): one bit per array slot marking whether the slot holds a
// real element or a gap. Range scans walk the bitmap to skip gaps, and
// inserts use NextClear/PrevClear to locate the closest gap when a shift
// is needed.
//
// The implementation is a plain []uint64 with word-at-a-time scans using
// math/bits, so skipping long runs of gaps (or long runs of elements)
// costs one trailing-zeros instruction per 64 slots.
package bitmapx

import "math/bits"

// Bitmap is a fixed-capacity bitset. The zero value is an empty bitmap of
// capacity 0; use New for a sized one. A data node holds its Bitmap by
// value, so New and Clone return values; copying a Bitmap shares its
// words, and only Clone duplicates them.
type Bitmap struct {
	words []uint64
	n     int // capacity in bits
	count int // number of set bits, maintained incrementally
}

// New returns a bitmap able to hold n bits, all initially clear.
func New(n int) Bitmap {
	return Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Clone returns a deep copy of the bitmap. Copy-on-write node rebuilds
// use it to duplicate a sealed node's occupancy before mutating the
// copy.
func (b *Bitmap) Clone() Bitmap {
	return Bitmap{words: append([]uint64(nil), b.words...), n: b.n, count: b.count}
}

// Len returns the capacity in bits.
func (b *Bitmap) Len() int { return b.n }

// Count returns the number of set bits.
func (b *Bitmap) Count() int { return b.count }

// SizeBytes returns the allocated size of the bitmap storage, for the
// paper's data-size accounting.
func (b *Bitmap) SizeBytes() int { return len(b.words) * 8 }

// Test reports whether bit i is set. Out-of-range i reports false.
func (b *Bitmap) Test(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i. It panics if i is out of range.
func (b *Bitmap) Set(i int) {
	if i < 0 || i >= b.n {
		panic("bitmapx: Set out of range")
	}
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if b.words[w]&m == 0 {
		b.words[w] |= m
		b.count++
	}
}

// Clear clears bit i. It panics if i is out of range.
func (b *Bitmap) Clear(i int) {
	if i < 0 || i >= b.n {
		panic("bitmapx: Clear out of range")
	}
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if b.words[w]&m != 0 {
		b.words[w] &^= m
		b.count--
	}
}

// Reset clears every bit without reallocating.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
	b.count = 0
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// none exists. i may be any value; negative i starts from 0.
func (b *Bitmap) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	w := i >> 6
	cur := b.words[w] >> (uint(i) & 63)
	if cur != 0 {
		return i + bits.TrailingZeros64(cur)
	}
	for w++; w < len(b.words); w++ {
		if b.words[w] != 0 {
			return w<<6 + bits.TrailingZeros64(b.words[w])
		}
	}
	return -1
}

// PrevSet returns the index of the last set bit at or before i, or -1.
// i values beyond the capacity are clamped to the last bit.
func (b *Bitmap) PrevSet(i int) int {
	if i >= b.n {
		i = b.n - 1
	}
	if i < 0 {
		return -1
	}
	w := i >> 6
	cur := b.words[w] << (63 - uint(i)&63)
	if cur != 0 {
		return i - bits.LeadingZeros64(cur)
	}
	for w--; w >= 0; w-- {
		if b.words[w] != 0 {
			return w<<6 + 63 - bits.LeadingZeros64(b.words[w])
		}
	}
	return -1
}

// NextClear returns the index of the first clear bit at or after i within
// the capacity, or -1 if every bit in [i, Len) is set.
func (b *Bitmap) NextClear(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	w := i >> 6
	cur := ^b.words[w] >> (uint(i) & 63)
	if cur != 0 {
		j := i + bits.TrailingZeros64(cur)
		if j < b.n {
			return j
		}
		return -1
	}
	for w++; w < len(b.words); w++ {
		if ^b.words[w] != 0 {
			j := w<<6 + bits.TrailingZeros64(^b.words[w])
			if j < b.n {
				return j
			}
			return -1
		}
	}
	return -1
}

// PrevClear returns the index of the last clear bit at or before i, or -1.
func (b *Bitmap) PrevClear(i int) int {
	if i >= b.n {
		i = b.n - 1
	}
	if i < 0 {
		return -1
	}
	w := i >> 6
	cur := ^b.words[w] << (63 - uint(i)&63)
	if cur != 0 {
		return i - bits.LeadingZeros64(cur)
	}
	for w--; w >= 0; w-- {
		if ^b.words[w] != 0 {
			return w<<6 + 63 - bits.LeadingZeros64(^b.words[w])
		}
	}
	return -1
}

// CountRange returns the number of set bits in [lo, hi).
func (b *Bitmap) CountRange(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	if lo >= hi {
		return 0
	}
	wLo, wHi := lo>>6, (hi-1)>>6
	if wLo == wHi {
		mask := (^uint64(0) >> (uint(lo) & 63) << (uint(lo) & 63))
		mask &= ^uint64(0) >> (63 - uint(hi-1)&63)
		return bits.OnesCount64(b.words[wLo] & mask)
	}
	total := bits.OnesCount64(b.words[wLo] >> (uint(lo) & 63))
	for w := wLo + 1; w < wHi; w++ {
		total += bits.OnesCount64(b.words[w])
	}
	total += bits.OnesCount64(b.words[wHi] << (63 - uint(hi-1)&63))
	return total
}
