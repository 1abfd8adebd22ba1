// Package dedup implements content-addressed deduplication for the
// migration transfer path: per-block fingerprints, a destination-side
// fingerprint index over content the destination already holds (retained
// peer copies, disks of hosted clone siblings, blocks received earlier in
// the same migration, and the zero block), and the small payload encodings
// the dedup wire frames carry (fingerprint batches and want-bitmaps).
//
// The paper's block-bitmap (§IV-A-2) deduplicates positionally: a block
// dirtied many times ships once per iteration. This package deduplicates by
// content: a block whose bytes the destination can already produce — at any
// offset, from any retained disk — costs its 16-byte fingerprint in an
// advert, which the destination answers by writing the block itself, instead
// of a 4 KiB literal. The protocol on top (MsgHashAdvert / MsgHashWant, see
// docs/WIRE.md §10) is negotiated; unconfigured peers keep the seed wire
// format. The index is advisory, never trusted (see Index).
package dedup

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/maphash"
	"sync"

	"bbmig/internal/blockdev"
)

// FingerprintSize is the wire size of one block fingerprint: SHA-256
// truncated to 16 bytes (128 bits), collision-proof at any realistic fleet
// scale and small enough that an advert costs 1/256th of a 4 KiB literal.
const FingerprintSize = 16

// Fingerprint is the content hash of one disk block.
type Fingerprint [FingerprintSize]byte

// Of fingerprints one block's content.
func Of(data []byte) Fingerprint {
	sum := sha256.Sum256(data)
	var fp Fingerprint
	copy(fp[:], sum[:FingerprintSize])
	return fp
}

// memoSlots sizes a Memo's table, 40 B a slot, and memoSample the bytes
// from a block's middle that key it: a fraction of the block's SHA-256.
const memoSlots, memoSample = 2048, 256

// Memo fingerprints one pass's blocks of Dev, hashing each distinct content
// once. It keeps no bytes, only (block, stamp, fingerprint) per sample key,
// and reuses a fingerprint only for bytes equal to its block's, read at its
// recorded write stamp. It records what its first memoSlots/2 hashes hashed,
// so its table stays at most half full. With Dev nil it hashes every block.
// The zero value is ready; a Memo serves one goroutine.
type Memo struct {
	Dev     blockdev.Stamped
	Hashes  int64 // the SHA-256 calls made
	seed    maphash.Seed
	scratch []byte
	slots   []memoSlot // linear probing; keys are odd, 0 marks a free slot
}

type memoSlot struct {
	key, stamp uint64
	block      int
	fp         Fingerprint
}

// Of returns the fingerprint of data, block n's content. stamp is block n's
// write stamp read under the lock data was read under, or 0: then block n is
// re-read, and data recorded only if it still holds those bytes.
func (m *Memo) Of(n int, data []byte, stamp uint64) Fingerprint {
	if m.Dev == nil {
		m.Hashes++
		return Of(data)
	}
	if m.slots == nil {
		m.seed, m.scratch, m.slots = maphash.MakeSeed(), make([]byte, len(data)), make([]memoSlot, memoSlots)
	}
	mid := max(len(data)-memoSample, 0) / 2
	key := maphash.Bytes(m.seed, data[mid:mid+min(len(data), memoSample)]) | 1
	e := &m.slots[key%memoSlots]
	for i := key + 1; e.key != 0 && e.key != key; i++ {
		e = &m.slots[i%memoSlots]
	}
	if e.key == key {
		if s, err := m.Dev.ReadStamped(e.block, m.scratch); err == nil && s == e.stamp && bytes.Equal(m.scratch, data) {
			return e.fp
		}
	}
	m.Hashes++
	fp := Of(data)
	if stamp == 0 && m.Hashes <= memoSlots/2 {
		if s, err := m.Dev.ReadStamped(n, m.scratch); err == nil && bytes.Equal(m.scratch, data) {
			stamp = s
		}
	}
	if stamp != 0 && m.Hashes <= memoSlots/2 {
		*e = memoSlot{key, stamp, n, fp}
	}
	return fp
}

// zeroPage is what IsZero compares against, a page at a time: bytes.Equal is
// vectorised where a byte loop is not.
var zeroPage [4096]byte

// IsZero reports whether data is all zero bytes (the candidate for
// zero-block elision).
func IsZero(data []byte) bool {
	for len(data) > len(zeroPage) {
		if !bytes.Equal(data[:len(zeroPage)], zeroPage[:]) {
			return false
		}
		data = data[len(zeroPage):]
	}
	return bytes.Equal(data, zeroPage[:len(data)])
}

// zeroContent is the all-zero block of one block size and its fingerprint.
// The block is shared by every Index of that size and is read-only: it is
// handed out as materialized content and must never be written through.
type zeroContent struct {
	block []byte
	fp    Fingerprint
}

// zeros caches one zeroContent per block size (int → *zeroContent).
var zeros sync.Map

func zeroOf(blockSize int) *zeroContent {
	if z, ok := zeros.Load(blockSize); ok {
		return z.(*zeroContent)
	}
	block := make([]byte, blockSize)
	z, _ := zeros.LoadOrStore(blockSize, &zeroContent{block: block, fp: Of(block)})
	return z.(*zeroContent)
}

// ZeroFingerprint returns the fingerprint of an all-zero block of the given
// size, hashed once per size. Every Index serves it without any observation:
// zero content is always materializable.
func ZeroFingerprint(blockSize int) Fingerprint { return zeroOf(blockSize).fp }

// AppendFingerprints appends the wire form of fps (FingerprintSize bytes
// each, in order) to buf — the MsgHashAdvert and MsgSwarmFetch payload.
func AppendFingerprints(buf []byte, fps []Fingerprint) []byte {
	for i := range fps {
		buf = append(buf, fps[i][:]...)
	}
	return buf
}

// ParseFingerprintsInto decodes a MsgHashAdvert or MsgSwarmFetch payload that
// must carry exactly count fingerprints, into dst's backing array when it is
// large enough. It returns dst unchanged on error, so a caller keeps its
// scratch.
func ParseFingerprintsInto(dst []Fingerprint, payload []byte, count int) ([]Fingerprint, error) {
	if len(payload) != count*FingerprintSize {
		return dst, fmt.Errorf("dedup: fingerprint payload %d bytes, want %d×%d", len(payload), count, FingerprintSize)
	}
	if cap(dst) < count {
		dst = make([]Fingerprint, count)
	}
	dst = dst[:count]
	for i := range dst {
		copy(dst[i][:], payload[i*FingerprintSize:])
	}
	return dst, nil
}

// WantLen returns the size of a want-bitmap for an advert of count blocks:
// one bit per block, LSB-first within each byte.
func WantLen(count int) int { return (count + 7) / 8 }

// WantLayout leads every MsgHashWant payload. It names the layout in which a
// clear bit is a block the destination wrote at the advert; the reply of the
// layout before it, whose clear bits awaited a reference, had no leading byte,
// so neither end can read the other's reply as its own.
const WantLayout = 1

// WantReplyLen returns the MsgHashWant payload size for an advert of count
// blocks: the layout byte and the want-bitmap.
func WantReplyLen(count int) int { return 1 + WantLen(count) }

// AppendWantReply appends the MsgHashWant payload carrying want to buf.
func AppendWantReply(buf, want []byte) []byte { return append(append(buf, WantLayout), want...) }

// ParseWantReply returns the want-bitmap of a MsgHashWant payload answering
// an advert of count blocks, as a view of payload. It refuses any other
// layout, and a bitmap that is not in its canonical form (CheckMask).
func ParseWantReply(payload []byte, count int) ([]byte, error) {
	if len(payload) != WantReplyLen(count) || payload[0] != WantLayout {
		return nil, fmt.Errorf("dedup: want reply of %d bytes for %d blocks is not layout %d", len(payload), count, WantLayout)
	}
	return payload[1:], CheckMask(payload[1:], count)
}

// SetWant marks block k of a want-bitmap as "send the literal".
func SetWant(buf []byte, k int) { buf[k/8] |= 1 << (k % 8) }

// CheckMask refuses a peer's want-bitmap or hit-mask for count blocks unless
// it is in its one canonical form: WantLen(count) bytes, no padding bit past
// count set.
func CheckMask(mask []byte, count int) error {
	if len(mask) != WantLen(count) {
		return fmt.Errorf("dedup: mask of %d bytes for %d blocks", len(mask), count)
	}
	if count%8 != 0 && mask[len(mask)-1]>>(count%8) != 0 {
		return fmt.Errorf("dedup: mask for %d blocks sets a padding bit", count)
	}
	return nil
}

// Want reports whether block k of a want-bitmap asks for the literal.
func Want(buf []byte, k int) bool { return buf[k/8]&(1<<(k%8)) != 0 }

// ClearWant retracts block k's literal request from a want-bitmap — the
// destination does this after a swarm peer produced (and verification
// accepted) the block's content, which it then writes at the advert.
func ClearWant(buf []byte, k int) { buf[k/8] &^= 1 << (k % 8) }

// WalkWant partitions an advertised extent into maximal same-verdict runs
// of its want-bitmap and calls fn once per run with the run's offset into
// the extent, its length, and whether the destination wants the literal —
// the one sender-side walk both the engine and the pre-sync path share, so
// the run framing cannot diverge between them.
func WalkWant(count int, want []byte, fn func(offset, n int, wanted bool) error) error {
	for k := 0; k < count; {
		wanted := Want(want, k)
		j := k + 1
		for j < count && Want(want, j) == wanted {
			j++
		}
		if err := fn(k, j-k, wanted); err != nil {
			return err
		}
		k = j
	}
	return nil
}
