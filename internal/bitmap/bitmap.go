// Package bitmap implements the block-bitmap data structures from
// "Live and Incremental Whole-System Migration of Virtual Machines Using
// Block-Bitmap" (Luo et al., CLUSTER 2008).
//
// A block-bitmap records which disk blocks were written ("dirtied") during a
// migration phase: one bit per block, 0 = clean, 1 = dirty (paper §IV-A-2).
// Two variants are provided:
//
//   - Bitmap: a plain bitmap, dense in memory. For a 32 GiB disk with 4 KiB
//     blocks it occupies 1 MiB, exactly as the paper computes. Scans are
//     word-at-a-time, so sparse bitmaps skip 64 clean blocks per step.
//   - Atomic: a dense bitmap safe for concurrent writers, used by the block
//     backend driver which records writes while the migration engine scans.
//
// On the wire and on disk a Bitmap is not always dense: MarshalBinary (see
// codec.go) writes a self-describing encoding, whichever is shorter of the
// paper's dense form and a run-length form, so what crosses the link in the
// freeze window follows the dirty set, not the disk size.
package bitmap

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Bitmap is a dense bitmap over a fixed number of bits. The zero value is
// unusable; construct with New. Bitmap is not safe for concurrent use; see
// Atomic for the concurrent variant.
type Bitmap struct {
	words []uint64
	n     int // number of valid bits
}

// New returns a Bitmap of n bits, all clear.
func New(n int) *Bitmap {
	if n < 0 {
		panic(fmt.Sprintf("bitmap: negative size %d", n))
	}
	return &Bitmap{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewAllSet returns a Bitmap of n bits, all set. The paper's incremental
// migration generates an all-set bitmap when no prior bitmap exists,
// "suggesting that all the blocks need to be transmitted" (§V).
func NewAllSet(n int) *Bitmap {
	b := New(n)
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.clearTail()
	return b
}

// clearTail zeroes the unused high bits of the final word so that Count and
// scans never observe bits beyond Len.
func (b *Bitmap) clearTail() {
	if r := b.n % wordBits; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (uint64(1) << uint(r)) - 1
	}
}

// Len returns the number of bits in the bitmap.
func (b *Bitmap) Len() int { return b.n }

// check panics when i is outside the bitmap. Out-of-range block numbers
// indicate a protocol or driver bug, never a recoverable condition.
func (b *Bitmap) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitmap: index %d out of range [0,%d)", i, b.n))
	}
}

// Set marks bit i dirty.
func (b *Bitmap) Set(i int) {
	b.check(i)
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear marks bit i clean.
func (b *Bitmap) Clear(i int) {
	b.check(i)
	b.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Test reports whether bit i is dirty.
func (b *Bitmap) Test(i int) bool {
	b.check(i)
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// SetRange marks bits [lo, hi) dirty. The block backend uses this when a
// write request spans several blocks (the paper splits each written area
// into 4 KiB blocks and sets the corresponding bits).
func (b *Bitmap) SetRange(lo, hi int) {
	if lo < 0 || hi > b.n || lo > hi {
		panic(fmt.Sprintf("bitmap: bad range [%d,%d) of %d", lo, hi, b.n))
	}
	for i := lo; i < hi; {
		w, off := i/wordBits, i%wordBits
		span := wordBits - off
		if rem := hi - i; rem < span {
			span = rem
		}
		var mask uint64
		if span == wordBits {
			mask = ^uint64(0)
		} else {
			mask = ((uint64(1) << uint(span)) - 1) << uint(off)
		}
		b.words[w] |= mask
		i += span
	}
}

// Reset clears every bit. The paper resets the bitmap at the start of each
// pre-copy iteration (§IV-A-3).
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Count returns the number of dirty bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// AnyIn reports whether any bit in [lo, hi) is set, a word at a time. The
// range must lie inside the bitmap.
func (b *Bitmap) AnyIn(lo, hi int) bool {
	for i := lo; i < hi; {
		end := min(i-i%wordBits+wordBits, hi)
		if b.words[i/wordBits]>>uint(i%wordBits)&(uint64(1)<<uint(end-i)-1) != 0 {
			return true
		}
		i = end
	}
	return false
}

// NextSet returns the index of the first dirty bit at or after i, or -1 if
// none. Scanning is word-at-a-time so sparse bitmaps are cheap to walk.
func (b *Bitmap) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	w := i / wordBits
	cur := b.words[w] >> uint(i%wordBits)
	if cur != 0 {
		return i + bits.TrailingZeros64(cur)
	}
	for w++; w < len(b.words); w++ {
		if b.words[w] != 0 {
			return w*wordBits + bits.TrailingZeros64(b.words[w])
		}
	}
	return -1
}

// ForEachSet calls fn for every dirty bit in ascending order. fn returning
// false stops the scan early.
func (b *Bitmap) ForEachSet(fn func(i int) bool) {
	for w, word := range b.words {
		for word != 0 {
			t := bits.TrailingZeros64(word)
			if !fn(w*wordBits + t) {
				return
			}
			word &^= 1 << uint(t)
		}
	}
}

// Union sets every bit in b that is set in other. Panics if lengths differ.
func (b *Bitmap) Union(other *Bitmap) {
	if other.n != b.n {
		panic(fmt.Sprintf("bitmap: union size mismatch %d != %d", other.n, b.n))
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// Subtract clears every bit in b that is set in other.
func (b *Bitmap) Subtract(other *Bitmap) {
	if other.n != b.n {
		panic(fmt.Sprintf("bitmap: subtract size mismatch %d != %d", other.n, b.n))
	}
	for i, w := range other.words {
		b.words[i] &^= w
	}
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	c := New(b.n)
	copy(c.words, b.words)
	return c
}

// Equal reports whether two bitmaps have identical length and contents.
func (b *Bitmap) Equal(other *Bitmap) bool {
	if b.n != other.n {
		return false
	}
	for i, w := range b.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// SizeBytes returns the in-memory size of the bit array, the quantity the
// paper uses to argue 4 KiB granularity (1 MiB per 32 GiB disk) over 512 B
// sectors (8 MiB).
func (b *Bitmap) SizeBytes() int { return 8 * len(b.words) }

// String renders a short human-readable summary, e.g. "bitmap{37/1024 set}".
func (b *Bitmap) String() string {
	return fmt.Sprintf("bitmap{%d/%d set}", b.Count(), b.n)
}
