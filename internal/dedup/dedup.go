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
// offset, from any retained disk — ships as a 16-byte reference instead of
// a 4 KiB literal, and all-zero blocks ship as references without even a
// round trip. The protocol on top (MsgHashAdvert / MsgHashWant /
// MsgBlockRef, see docs/WIRE.md §10) is negotiated; unconfigured peers keep
// the seed wire format.
//
// Safety model: the index is advisory, never trusted. Every Lookup re-reads
// the candidate block and re-hashes it before claiming the content, so
// stale entries (a source block overwritten since it was observed, a
// source that went away) degrade to "absent" — a full literal send — never
// to wrong bytes.
package dedup

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
)

// FingerprintSize is the wire size of one block fingerprint: SHA-256
// truncated to 16 bytes (128 bits), collision-proof at any realistic fleet
// scale and small enough that a reference costs 1/256th of a 4 KiB literal.
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
// each, in order) to buf — the MsgHashAdvert / MsgBlockRef payload encoding.
func AppendFingerprints(buf []byte, fps []Fingerprint) []byte {
	for i := range fps {
		buf = append(buf, fps[i][:]...)
	}
	return buf
}

// ParseFingerprintsInto decodes a MsgHashAdvert / MsgBlockRef payload that
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

// WantLen returns the MsgHashWant payload size for an advert of count
// blocks: one bit per block, LSB-first within each byte.
func WantLen(count int) int { return (count + 7) / 8 }

// SetWant marks block k of a want-bitmap as "send the literal".
func SetWant(buf []byte, k int) { buf[k/8] |= 1 << (k % 8) }

// Want reports whether block k of a want-bitmap asks for the literal.
func Want(buf []byte, k int) bool { return buf[k/8]&(1<<(k%8)) != 0 }

// ClearWant retracts block k's literal request from a want-bitmap — the
// destination does this after a swarm peer produced (and verification
// accepted) the block's content, leaving the source a reference to send.
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
