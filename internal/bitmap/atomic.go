package bitmap

import (
	"math/bits"
	"sync/atomic"
)

// Atomic is a bitmap safe for concurrent use. The block backend driver
// sets bits from the domain's I/O path while the migration engine concurrently
// scans, snapshots, and swaps out the bitmap, mirroring the paper's blkback
// (writer) / blkd (reader) split.
//
// Like Bitmap it is a directory of 4 KiB leaves, each published once, by
// compare-and-swap, by the first Set in it, and never freed while the Atomic
// lives; a nil leaf reads as all clear. Count, Snapshot and SwapOut cost the
// leaves present, Set and Test one pointer load more than a flat array.
//
// All operations are lock-free word-level atomics. Snapshot is not atomic
// with in-flight writers; the engine tolerates this the same way the paper
// does — a write racing a snapshot lands in either the current or the next
// iteration's bitmap, both of which preserve consistency because a block
// recorded "dirty" is simply retransmitted.
type Atomic struct {
	leaves []atomic.Pointer[[]atomic.Uint64]
	n      int
	one    [1]atomic.Pointer[[]atomic.Uint64] // the directory of a one-leaf bitmap
}

// NewAtomic returns an Atomic bitmap of n bits, all clear.
func NewAtomic(n int) *Atomic {
	a := &Atomic{n: n}
	a.leaves = directory(n, &a.one)
	return a
}

// leaf returns the words of leaf k, publishing them on first use. Racing
// first writers both allocate; one wins the swap, and all write into the
// winner's words.
func (a *Atomic) leaf(k int) []atomic.Uint64 {
	if p := a.leaves[k].Load(); p != nil {
		return *p
	}
	l := make([]atomic.Uint64, leafLen(a.n, k))
	a.leaves[k].CompareAndSwap(nil, &l)
	return *a.leaves[k].Load()
}

// load returns word w at this instant; a nil leaf's words read as zero.
func (a *Atomic) load(w int) uint64 {
	if p := a.leaves[w/leafWords].Load(); p != nil {
		return (*p)[w%leafWords].Load()
	}
	return 0
}

// Set marks bit i dirty.
func (a *Atomic) Set(i int) {
	check(i, a.n)
	a.leaf(i / leafBits)[i%leafBits/wordBits].Or(1 << uint(i%wordBits))
}

// Test reports whether bit i is dirty.
func (a *Atomic) Test(i int) bool {
	check(i, a.n)
	return a.load(i/wordBits)&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of dirty bits at this instant.
func (a *Atomic) Count() int {
	c := 0
	a.words(func(_, _ int, w *atomic.Uint64) { c += bits.OnesCount64(w.Load()) })
	return c
}

// words calls fn with every word of the leaves present, and where it is.
func (a *Atomic) words(fn func(k, j int, w *atomic.Uint64)) {
	for k := range a.leaves {
		if p := a.leaves[k].Load(); p != nil {
			for j := range *p {
				fn(k, j, &(*p)[j])
			}
		}
	}
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
func (a *Atomic) Snapshot() *Bitmap { return a.capture(false) }

// SwapOut atomically captures and clears the bitmap word by word, returning
// the captured contents. This is the per-iteration "copy then reset" step of
// the pre-copy loop (§IV-A-3): blkd reads the bitmap from blkback and blkback
// resets it for the next iteration. Word-level swap guarantees no set bit is
// ever lost — a concurrent Set lands either in the returned snapshot or in
// the freshly cleared bitmap. A leaf published after SwapOut passed it keeps
// its bits for the next call.
func (a *Atomic) SwapOut() *Bitmap { return a.capture(true) }

// capture copies, or swaps out when swap is set, every non-zero word of the
// present leaves into a fresh Bitmap, which gets leaves only where a bit was.
func (a *Atomic) capture(swap bool) *Bitmap {
	b := New(a.n)
	a.words(func(k, j int, w *atomic.Uint64) {
		x := w.Load()
		if swap && x != 0 {
			x = w.Swap(0)
		}
		if x != 0 {
			b.leaf(k)[j] = x
		}
	})
	return b
}
