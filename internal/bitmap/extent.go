package bitmap

import (
	"fmt"
	"math/bits"
)

// Extent is a run of consecutive set bits: blocks [Start, Start+Count).
// The migration engine coalesces dirty-bitmap runs into extents so one wire
// frame can carry many contiguous blocks instead of paying the per-message
// framing and flush cost for each (the paper ships every block as its own
// message over the single blkd socket, which leaves disk iterations
// latency-bound rather than bandwidth-bound).
type Extent struct {
	Start int
	Count int
}

// End returns the first block past the extent.
func (e Extent) End() int { return e.Start + e.Count }

// String renders the extent as a half-open interval.
func (e Extent) String() string { return fmt.Sprintf("[%d,%d)", e.Start, e.Start+e.Count) }

// nextClear returns the index of the first clear bit at or after i, or Len
// if every remaining bit is set. Scanning is word-at-a-time, mirroring
// NextSet; a nil leaf ends the scan at its first bit.
func (b *Bitmap) nextClear(i int) int {
	i = max(i, 0)
	// Invert so clear bits become set, mask off the bits below i.
	from := ^uint64(0) << uint(i%wordBits)
	for w := i / wordBits; w < wordsFor(b.n); w, from = w+1, ^uint64(0) {
		if inv := ^b.word(w) & from; inv != 0 {
			return min(w*wordBits+bits.TrailingZeros64(inv), b.n)
		}
	}
	return b.n
}

// ForEachExtent calls fn for every run of set bits in ascending order,
// splitting runs longer than max into chunks of at most max bits. A max of
// zero or less means runs are never split. fn returning false stops the
// scan early.
//
// The extents visit exactly the set bits: concatenating them reproduces
// ForEachSet's sequence.
func (b *Bitmap) ForEachExtent(max int, fn func(e Extent) bool) {
	i := b.NextSet(0)
	for i >= 0 {
		j := b.nextClear(i) // end of the maximal run starting at i
		for start := i; start < j; {
			count := j - start
			if max > 0 && count > max {
				count = max
			}
			if !fn(Extent{Start: start, Count: count}) {
				return
			}
			start += count
		}
		if j >= b.n {
			return
		}
		i = b.NextSet(j)
	}
}

// NextExtent returns the first run of set bits starting at or after i,
// clipped to at most max bits (max <= 0 means unclipped), or a zero-Count
// extent when no set bit remains. The post-copy pusher uses this to coalesce
// its remaining set around the push cursor.
func (b *Bitmap) NextExtent(i, max int) Extent {
	start := b.NextSet(i)
	if start < 0 {
		return Extent{}
	}
	end := b.nextClear(start)
	count := end - start
	if max > 0 && count > max {
		count = max
	}
	return Extent{Start: start, Count: count}
}

// NextExtentExcluding is NextExtent over the bits of b that live does not
// hold right now: the first run of `b &^ live` starting at or after i,
// clipped to max. excluded counts the set bits of b it passed over before
// that run (or before the end of the bitmap when the extent is empty)
// because live held them; every set bit of b in that gap is one of them.
//
// The scan is word-at-a-time and lazy: each live word is loaded once, when
// the scan reaches it, so a bit set in live after an earlier call is seen by
// the next one, and a run is cut at the first bit live holds. A zero View
// makes this exactly NextExtent.
func (b *Bitmap) NextExtentExcluding(live View, i, max int) (ext Extent, excluded int) {
	if live.a == nil {
		return b.NextExtent(i, max), 0
	}
	if live.a.n != b.n {
		panic(fmt.Sprintf("bitmap: exclude size mismatch %d != %d", live.a.n, b.n))
	}
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return Extent{}, 0
	}
	first := i / wordBits
	for w := b.nextNonzero(first); w >= 0; w = b.nextNonzero(w + 1) {
		own := b.word(w)
		if w == first {
			own &= ^uint64(0) << uint(i%wordBits) // drops the bits below i
		}
		if own == 0 {
			continue
		}
		held := live.a.load(w)
		send := own &^ held
		if send == 0 {
			excluded += bits.OnesCount64(own)
			continue
		}
		t := bits.TrailingZeros64(send)
		excluded += bits.OnesCount64(own & held & (uint64(1)<<uint(t) - 1))
		// The run continues while consecutive bits stay in b and out of
		// live, across word boundaries, until max is reached.
		count := bits.TrailingZeros64(^(send >> uint(t)))
		for next := w + 1; t+count == (next-w)*wordBits && next < wordsFor(b.n) && (max <= 0 || count < max); next++ {
			run := b.word(next)
			if run != 0 {
				run &^= live.a.load(next)
			}
			count += bits.TrailingZeros64(^run)
		}
		if max > 0 && count > max {
			count = max
		}
		return Extent{Start: w*wordBits + t, Count: count}, excluded
	}
	return Extent{}, excluded
}
