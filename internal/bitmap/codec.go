package bitmap

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// A marshalled bitmap describes its own form (docs/WIRE.md §4). Both forms
// open with an 8-byte little-endian header holding the bit count in the low
// 56 bits and a format tag in the top byte:
//
//   - dense (tag 0): the header, then ceil(n/64) little-endian words. A
//     count never exceeds maxBits, so this is byte for byte the only form
//     the protocol had before the tag existed.
//   - runs (tag 1): the header, then one (gap, run) pair of uvarints per
//     maximal run of set bits, in ascending order: gap clear bits since the
//     previous run ended (since bit 0 for the first), then run set bits.
//
// The runs form is canonical — one byte string per bitmap: every run is at
// least one bit, every gap but the first is at least one bit (touching runs
// are one run), every uvarint is minimal, no run reaches past n and nothing
// follows the last pair.
const (
	marshalHeader = 8
	tagShift      = 56
	tagRuns       = 1 // tag 0, which a count within maxBits always leaves, is dense

	// maxBits guards against corrupt headers: 1 Tbit, a 4 PiB disk.
	maxBits = 1 << 40
	// maxUnsizedRunBits is the most a runs payload may declare to a decoder
	// that was not told the size to expect. A dense payload's length bounds
	// what decoding it allocates; eight bytes of runs form could otherwise
	// ask for 128 GiB of words. 2^32 bits is a 16 TiB disk of 4 KiB blocks;
	// every decoder that knows its device uses UnmarshalSized instead.
	maxUnsizedRunBits = 1 << 32
)

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func (b *Bitmap) denseLen() int { return marshalHeader + 8*wordsFor(b.n) }

// runsBudget returns the longest runs form the encoder may emit — one byte
// shorter than the dense form, which wins a tie — and how many runs the
// bitmap has, or ok == false when it has more than a runs form that short
// could hold. A pair is at least two bytes and run starts can be counted a
// word at a time (a set bit whose predecessor is clear), so a dense bitmap
// is refused after a fraction of one pass over its words, before any extent
// is walked. Nil leaves are skipped whole.
func (b *Bitmap) runsBudget() (limit, runs int, ok bool) {
	limit = b.denseLen() - 1
	maxRuns := (limit - marshalHeader) / 2
	carry := uint64(0)
	for _, l := range b.leaves {
		if l == nil {
			carry = 0
		}
		for _, w := range l {
			runs += bits.OnesCount64(w &^ (w<<1 | carry))
			carry = w >> (wordBits - 1)
			if runs > maxRuns {
				return 0, 0, false
			}
		}
	}
	return limit, runs, true
}

// forEachPair calls fn with the runs form's (gap, run) pair for every
// maximal run of set bits, until fn returns false.
func (b *Bitmap) forEachPair(fn func(gap, run uint64) bool) {
	prev := 0
	b.ForEachExtent(0, func(e Extent) bool {
		gap := uint64(e.Start - prev)
		prev = e.End()
		return fn(gap, uint64(e.Count))
	})
}

// EncodedLen returns the length of what MarshalBinary would return, without
// building it.
func (b *Bitmap) EncodedLen() int {
	if limit, _, ok := b.runsBudget(); ok {
		n := marshalHeader
		b.forEachPair(func(gap, run uint64) bool {
			n += uvarintLen(gap) + uvarintLen(run)
			return n <= limit
		})
		if n <= limit {
			return n
		}
	}
	return b.denseLen()
}

// MarshalBinary serializes the bitmap in its shorter form: runs when that is
// strictly shorter than dense, dense otherwise. Every path a bitmap travels
// uses this encoding: the freeze-and-copy phase's MsgBitmap (§IV-A-3), the
// session-ack cursors, vault peer entries and SaveFile (fresh-write bitmaps
// and the source's journal).
func (b *Bitmap) MarshalBinary() ([]byte, error) {
	if limit, runs, ok := b.runsBudget(); ok {
		// Neither uvarint of a pair can be longer than the bit count's, and
		// no runs form worth building is longer than dense.
		out := make([]byte, marshalHeader, min(b.denseLen(), marshalHeader+2*runs*uvarintLen(uint64(b.n))))
		binary.LittleEndian.PutUint64(out, uint64(b.n)|tagRuns<<tagShift)
		b.forEachPair(func(gap, run uint64) bool {
			out = binary.AppendUvarint(binary.AppendUvarint(out, gap), run)
			return len(out) <= limit
		})
		if len(out) <= limit {
			return out, nil
		}
	}
	out := make([]byte, b.denseLen())
	binary.LittleEndian.PutUint64(out, uint64(b.n))
	dst := out[marshalHeader:] // nil leaves stay zero
	for k, l := range b.leaves {
		for j, w := range l {
			binary.LittleEndian.PutUint64(dst[8*(k*leafWords+j):], w)
		}
	}
	return out, nil
}

// UnmarshalBinary deserializes either form produced by MarshalBinary,
// whatever size it declares (within maxBits, and maxUnsizedRunBits for the
// runs form). A decoder that knows how many bits to expect uses
// UnmarshalSized.
func (b *Bitmap) UnmarshalBinary(data []byte) error { return b.decode(data, -1) }

// UnmarshalSized deserializes a bitmap that must hold exactly n bits. A
// payload declaring any other count is refused before anything is
// allocated, so a lying peer can neither hand the engine a bitmap that
// disagrees with its device nor make it allocate for one.
func UnmarshalSized(data []byte, n int) (*Bitmap, error) {
	b := &Bitmap{}
	if err := b.decode(data, n); err != nil {
		return nil, err
	}
	return b, nil
}

// decode is both decoders; want < 0 accepts any plausible bit count.
func (b *Bitmap) decode(data []byte, want int) error {
	if len(data) < marshalHeader {
		return fmt.Errorf("bitmap: truncated header: %d bytes", len(data))
	}
	hdr := binary.LittleEndian.Uint64(data)
	tag, count := hdr>>tagShift, hdr&(1<<tagShift-1)
	switch {
	case tag > tagRuns:
		return fmt.Errorf("bitmap: unknown format tag %d", tag)
	case count > maxBits:
		return fmt.Errorf("bitmap: implausible bit count %d", count)
	case want >= 0 && count != uint64(want):
		return fmt.Errorf("bitmap: %d bits, want %d", count, want)
	case want < 0 && tag == tagRuns && count > maxUnsizedRunBits:
		return fmt.Errorf("bitmap: runs form declares %d bits with no size to check it against", count)
	}
	n, body := int(count), data[marshalHeader:]
	words := wordsFor(n)
	if tag == tagRuns {
		// Validate every pair before allocating.
		if err := forEachRun(body, n, nil); err != nil {
			return err
		}
	} else if len(body) != 8*words {
		return fmt.Errorf("bitmap: want %d payload bytes for %d bits, have %d", 8*words, n, len(body))
	}
	*b = Bitmap{n: n}
	b.leaves = directory(n, &b.one)
	if tag == tagRuns {
		return forEachRun(body, n, b.SetRange)
	}
	for i := range words { // leaves only where a word has a bit
		w := binary.LittleEndian.Uint64(body[8*i:])
		if i == words-1 { // Count and scans never see bits past n
			w &= ^uint64(0) >> uint(words*wordBits-n)
		}
		if w != 0 {
			b.leaf(i / leafWords)[i%leafWords] = w
		}
	}
	return nil
}

// MinimalUvarint reads one uvarint off p, refusing a truncated, overlong or
// zero-padded one: the canonical codecs (the runs form here, the page deltas
// in internal/vm, the page batches in internal/transport) accept exactly one
// spelling of every count.
func MinimalUvarint(p []byte) (x uint64, rest []byte, ok bool) {
	x, k := binary.Uvarint(p)
	if k <= 0 || (k > 1 && p[k-1] == 0) {
		return 0, nil, false
	}
	return x, p[k:], true
}

// forEachRun walks the (gap, run) pairs of a runs-form body over n bits,
// calling fn (when non-nil) with each run as [lo, hi), and fails on
// anything that is not the canonical encoding.
func forEachRun(pairs []byte, n int, fn func(lo, hi int)) error {
	pos := 0
	for first := true; len(pairs) > 0; first = false {
		gap, rest, ok := MinimalUvarint(pairs)
		run, rest, ok2 := MinimalUvarint(rest)
		if !ok || !ok2 {
			return fmt.Errorf("bitmap: runs form: truncated or non-minimal uvarint after bit %d", pos)
		}
		pairs = rest
		if run == 0 || (gap == 0 && !first) {
			return fmt.Errorf("bitmap: runs form: empty or touching run after bit %d", pos)
		}
		left := uint64(n - pos)
		if gap > left || run > left-gap {
			return fmt.Errorf("bitmap: runs form: run past bit count %d", n)
		}
		lo := pos + int(gap)
		pos = lo + int(run)
		if fn != nil {
			fn(lo, pos)
		}
	}
	return nil
}
