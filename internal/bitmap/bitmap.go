// Package bitmap implements the block-bitmap data structures from
// "Live and Incremental Whole-System Migration of Virtual Machines Using
// Block-Bitmap" (Luo et al., CLUSTER 2008).
//
// A block-bitmap records which disk blocks were written ("dirtied") during a
// migration phase: one bit per block, 0 = clean, 1 = dirty (paper §IV-A-2).
// Two variants are provided:
//
//   - Bitmap: a plain bitmap in 4 KiB leaves, each allocated by the first
//     bit set in it. A full one for a 32 GiB disk of 4 KiB blocks holds
//     1 MiB, exactly as the paper computes; a sparse one, its dirty leaves.
//   - Atomic: the same, safe for concurrent writers, used by the block
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
	"slices"
)

const (
	wordBits  = 64
	leafWords = 512 // 4 KiB of words: the unit a bitmap allocates
	leafBits  = leafWords * wordBits
)

// Bitmap is a bitmap over a fixed number of bits, held as a directory of
// 4 KiB leaves of 512 words (the last holds only the words left). A nil leaf
// reads as all clear and is allocated by the first write that sets a bit in
// it, so a bitmap costs its dirty leaves plus 24 bytes of directory a leaf:
// 7 KiB for an idle guest on the paper's 40 GB disk, not 1.2 MB; a bitmap
// shorter than one leaf, exactly its own words. Every pass over the bits
// (Count, NextSet, the extent walks, Union, Subtract, Clone, Equal, Reset,
// the codec) skips nil leaves, so it costs the leaves present; a single-bit
// operation costs one directory lookup. Construct with New. Not safe for
// concurrent use; see Atomic.
type Bitmap struct {
	leaves [][]uint64
	n      int         // number of valid bits
	one    [1][]uint64 // the directory of a one-leaf bitmap
}

// wordsFor is the number of words n bits occupy.
func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// leafLen is the number of words leaf k of an n-bit bitmap holds.
func leafLen(n, k int) int { return min(leafWords, wordsFor(n)-k*leafWords) }

// directory returns the leaf directory of an n-bit bitmap: one itself when a
// single leaf covers it, so a short bitmap allocates no directory.
func directory[T any](n int, one *[1]T) []T {
	if n < 0 {
		panic(fmt.Sprintf("bitmap: negative size %d", n))
	}
	if k := (wordsFor(n) + leafWords - 1) / leafWords; k > 1 {
		return make([]T, k)
	}
	return one[:min(n, 1)]
}

// New returns a Bitmap of n bits, all clear. It allocates no leaf.
func New(n int) *Bitmap {
	b := &Bitmap{n: n}
	b.leaves = directory(n, &b.one)
	return b
}

// NewAllSet returns a Bitmap of n bits, all set. The paper's incremental
// migration generates an all-set bitmap when no prior bitmap exists,
// "suggesting that all the blocks need to be transmitted" (§V).
func NewAllSet(n int) *Bitmap {
	b := New(n)
	b.SetRange(0, n)
	return b
}

// leaf returns the words of leaf k, allocating them on first use.
func (b *Bitmap) leaf(k int) []uint64 {
	if b.leaves[k] == nil {
		b.leaves[k] = make([]uint64, leafLen(b.n, k))
	}
	return b.leaves[k]
}

// word returns word w; a nil leaf's words read as zero.
func (b *Bitmap) word(w int) uint64 {
	if l := b.leaves[w/leafWords]; l != nil {
		return l[w%leafWords]
	}
	return 0
}

// Len returns the number of bits in the bitmap.
func (b *Bitmap) Len() int { return b.n }

// check panics when i is outside an n-bit bitmap. Out-of-range block
// numbers indicate a protocol or driver bug, never a recoverable condition.
func check(i, n int) {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("bitmap: index %d out of range [0,%d)", i, n))
	}
}

// Set marks bit i dirty.
func (b *Bitmap) Set(i int) {
	check(i, b.n)
	b.leaf(i / leafBits)[i%leafBits/wordBits] |= 1 << uint(i%wordBits)
}

// Clear marks bit i clean.
func (b *Bitmap) Clear(i int) {
	check(i, b.n)
	b.ClearRange(i, i+1)
}

// Test reports whether bit i is dirty.
func (b *Bitmap) Test(i int) bool {
	check(i, b.n)
	return b.word(i/wordBits)&(1<<uint(i%wordBits)) != 0
}

// SetRange marks bits [lo, hi) dirty. The block backend uses this when a
// write request spans several blocks (the paper splits each written area
// into 4 KiB blocks and sets the corresponding bits).
func (b *Bitmap) SetRange(lo, hi int) {
	b.forRange(lo, hi, func(w int, mask uint64) { b.leaf(w / leafWords)[w%leafWords] |= mask })
}

// ClearRange clears bits [lo, hi), the inverse of SetRange.
func (b *Bitmap) ClearRange(lo, hi int) {
	b.forRange(lo, hi, func(w int, mask uint64) {
		if l := b.leaves[w/leafWords]; l != nil {
			l[w%leafWords] &^= mask
		}
	})
}

// forRange calls fn with every word [lo, hi) touches and the mask of the
// range's bits in it.
func (b *Bitmap) forRange(lo, hi int, fn func(w int, mask uint64)) {
	if lo < 0 || hi > b.n || lo > hi {
		panic(fmt.Sprintf("bitmap: bad range [%d,%d) of %d", lo, hi, b.n))
	}
	for i := lo; i < hi; {
		off := i % wordBits
		span := min(wordBits-off, hi-i)
		fn(i/wordBits, (^uint64(0)>>uint(wordBits-span))<<uint(off))
		i += span
	}
}

// Reset clears every bit. The paper resets the bitmap at the start of each
// pre-copy iteration (§IV-A-3). Leaves stay allocated for the next
// iteration's writes.
func (b *Bitmap) Reset() {
	for _, l := range b.leaves {
		clear(l)
	}
}

// Count returns the number of dirty bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, l := range b.leaves {
		for _, w := range l {
			c += bits.OnesCount64(w)
		}
	}
	return c
}

// Any reports whether any bit is set.
func (b *Bitmap) Any() bool { return b.nextNonzero(0) >= 0 }

// AnyIn reports whether any bit in [lo, hi) is set, a word at a time. The
// range must lie inside the bitmap.
func (b *Bitmap) AnyIn(lo, hi int) bool {
	for i := lo; i < hi; {
		end := min(i-i%wordBits+wordBits, hi)
		if b.word(i/wordBits)>>uint(i%wordBits)&(uint64(1)<<uint(end-i)-1) != 0 {
			return true
		}
		i = end
	}
	return false
}

// nextNonzero returns the index of the first word at or after w with a bit
// set, or -1 if none, skipping nil leaves whole.
func (b *Bitmap) nextNonzero(w int) int {
	for k := w / leafWords; k < len(b.leaves); k, w = k+1, (k+1)*leafWords {
		l := b.leaves[k]
		for j := w - k*leafWords; j < len(l); j++ {
			if l[j] != 0 {
				return k*leafWords + j
			}
		}
	}
	return -1
}

// NextSet returns the index of the first dirty bit at or after i, or -1 if
// none. Scanning is word-at-a-time and skips nil leaves, so sparse bitmaps
// are cheap to walk.
func (b *Bitmap) NextSet(i int) int {
	if i = max(i, 0); i >= b.n {
		return -1
	}
	w := i / wordBits
	if cur := b.word(w) >> uint(i%wordBits); cur != 0 {
		return i + bits.TrailingZeros64(cur)
	}
	if w = b.nextNonzero(w + 1); w < 0 {
		return -1
	}
	return w*wordBits + bits.TrailingZeros64(b.word(w))
}

// ForEachSet calls fn for every dirty bit in ascending order. fn returning
// false stops the scan early.
func (b *Bitmap) ForEachSet(fn func(i int) bool) {
	for k, l := range b.leaves {
		for j, word := range l {
			for word != 0 {
				t := bits.TrailingZeros64(word)
				if !fn((k*leafWords+j)*wordBits + t) {
					return
				}
				word &^= 1 << uint(t)
			}
		}
	}
}

// Union sets every bit in b that is set in other. Panics if lengths differ.
// It costs other's leaves, and allocates b's only where other has a bit.
func (b *Bitmap) Union(other *Bitmap) {
	if other.n != b.n {
		panic(fmt.Sprintf("bitmap: union size mismatch %d != %d", other.n, b.n))
	}
	for k, ol := range other.leaves {
		for j, w := range ol {
			if w != 0 {
				b.leaf(k)[j] |= w
			}
		}
	}
}

// Subtract clears every bit in b that is set in other.
func (b *Bitmap) Subtract(other *Bitmap) {
	if other.n != b.n {
		panic(fmt.Sprintf("bitmap: subtract size mismatch %d != %d", other.n, b.n))
	}
	for k, l := range b.leaves {
		for j := range l {
			l[j] &^= other.word(k*leafWords + j)
		}
	}
}

// Clone returns a deep copy, with leaves where b has them.
func (b *Bitmap) Clone() *Bitmap {
	c := New(b.n)
	for k, l := range b.leaves {
		if l != nil {
			c.leaves[k] = slices.Clone(l)
		}
	}
	return c
}

// Equal reports whether two bitmaps have identical length and contents. A
// nil leaf equals an allocated all-clear one.
func (b *Bitmap) Equal(other *Bitmap) bool {
	if b.n != other.n {
		return false
	}
	for k, l := range b.leaves {
		if l == nil && other.leaves[k] == nil {
			continue
		}
		for w := k * leafWords; w < k*leafWords+leafLen(b.n, k); w++ {
			if b.word(w) != other.word(w) {
				return false
			}
		}
	}
	return true
}

// SizeBytes returns the in-memory size of the bitmap: its allocated leaves
// plus the directory. A full bitmap costs the flat bit array, the quantity
// the paper uses to argue 4 KiB granularity (1 MiB per 32 GiB disk) over
// 512 B sectors (8 MiB), plus the 24-byte slice header of each leaf.
func (b *Bitmap) SizeBytes() int {
	size := 24 * len(b.leaves)
	for _, l := range b.leaves {
		size += 8 * len(l)
	}
	return size
}

// String renders a short human-readable summary, e.g. "bitmap{37/1024 set}".
func (b *Bitmap) String() string {
	return fmt.Sprintf("bitmap{%d/%d set}", b.Count(), b.n)
}
