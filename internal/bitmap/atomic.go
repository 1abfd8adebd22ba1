package bitmap

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Atomic is a dense bitmap safe for concurrent use. The block backend driver
// sets bits from the domain's I/O path while the migration engine concurrently
// scans, snapshots, and resets the bitmap, mirroring the paper's blkback
// (writer) / blkd (reader) split.
//
// All operations are lock-free word-level atomics. Snapshot and Reset are not
// mutually atomic with in-flight writers; the engine tolerates this the same
// way the paper does — a write racing a snapshot lands in either the current
// or the next iteration's bitmap, both of which preserve consistency because
// a block recorded "dirty" is simply retransmitted.
type Atomic struct {
	words []atomic.Uint64
	n     int
}

// NewAtomic returns an Atomic bitmap of n bits, all clear.
func NewAtomic(n int) *Atomic {
	if n < 0 {
		panic(fmt.Sprintf("bitmap: negative size %d", n))
	}
	return &Atomic{words: make([]atomic.Uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of bits.
func (a *Atomic) Len() int { return a.n }

func (a *Atomic) check(i int) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("bitmap: index %d out of range [0,%d)", i, a.n))
	}
}

// Set marks bit i dirty.
func (a *Atomic) Set(i int) {
	a.check(i)
	a.words[i/wordBits].Or(1 << uint(i%wordBits))
}

// Clear marks bit i clean.
func (a *Atomic) Clear(i int) {
	a.check(i)
	a.words[i/wordBits].And(^(uint64(1) << uint(i%wordBits)))
}

// Test reports whether bit i is dirty.
func (a *Atomic) Test(i int) bool {
	a.check(i)
	return a.words[i/wordBits].Load()&(1<<uint(i%wordBits)) != 0
}

// SetRange marks bits [lo, hi) dirty.
func (a *Atomic) SetRange(lo, hi int) {
	if lo < 0 || hi > a.n || lo > hi {
		panic(fmt.Sprintf("bitmap: bad range [%d,%d) of %d", lo, hi, a.n))
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
		a.words[w].Or(mask)
		i += span
	}
}

// Count returns the number of dirty bits at this instant.
func (a *Atomic) Count() int {
	c := 0
	for i := range a.words {
		c += bits.OnesCount64(a.words[i].Load())
	}
	return c
}

// Any reports whether any bit is set.
func (a *Atomic) Any() bool {
	for i := range a.words {
		if a.words[i].Load() != 0 {
			return true
		}
	}
	return false
}

// View is a read-only handle on an Atomic, for readers that must watch a
// live tracker without being able to clear or swap it — the pre-copy send
// cursor consults the backend's dirty bitmap through one
// (Bitmap.NextExtentExcluding). The zero View watches nothing and excludes
// nothing.
type View struct{ a *Atomic }

// View returns a read-only handle on a.
func (a *Atomic) View() View { return View{a} }

// Test reports whether bit i is dirty right now; the zero View holds nothing.
func (v View) Test(i int) bool { return v.a != nil && v.a.Test(i) }

// Snapshot copies the current contents into a plain Bitmap.
func (a *Atomic) Snapshot() *Bitmap {
	b := New(a.n)
	for i := range a.words {
		b.words[i] = a.words[i].Load()
	}
	return b
}

// SwapOut atomically captures and clears the bitmap word by word, returning
// the captured contents. This is the per-iteration "copy then reset" step of
// the pre-copy loop (§IV-A-3): blkd reads the bitmap from blkback and blkback
// resets it for the next iteration. Word-level swap guarantees no set bit is
// ever lost — a concurrent Set lands either in the returned snapshot or in
// the freshly cleared bitmap.
func (a *Atomic) SwapOut() *Bitmap {
	b := New(a.n)
	for i := range a.words {
		b.words[i] = a.words[i].Swap(0)
	}
	return b
}

// Reset clears all bits.
func (a *Atomic) Reset() {
	for i := range a.words {
		a.words[i].Store(0)
	}
}

// LoadFrom overwrites the contents from a plain Bitmap of identical length.
func (a *Atomic) LoadFrom(b *Bitmap) {
	if b.n != a.n {
		panic(fmt.Sprintf("bitmap: load size mismatch %d != %d", b.n, a.n))
	}
	for i := range a.words {
		a.words[i].Store(b.words[i])
	}
}
