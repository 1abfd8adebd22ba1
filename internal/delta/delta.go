// Package delta implements the rsync-style block delta codec behind the
// engine's WAN transfer path (Config.Delta): the source hints what its new
// content looks like (one strong digest per Unit bytes), the destination
// summarizes the content it already holds as a chunk signature — a chunk
// inside units that match the hint is marked equal, every other chunk is
// recorded as a weak rolling hash plus a CRC-32C ‖ CRC-32 strong hash — the
// source diffs the new content against that signature, and what crosses the
// wire is a COPY/LITERAL op stream: bytes only for the chunks that actually
// changed. An unhinted signature (Sig) is the same form with no chunk marked
// equal.
//
// The codec is deliberately self-describing and paranoid: signatures and
// patches are flat little-endian blobs with strict length validation, a
// patch carries a truncated SHA-256 of the whole reconstructed extent which
// Apply verifies before returning a single byte, and every parse path is
// fuzz-hardened (FuzzDeltaSig/FuzzDeltaPatch) — arbitrary input can fail,
// never panic, over-read, or yield unverified bytes. The hint digests and the
// chunk hashes only choose which old chunks a patch names; the trailer alone
// decides whether its bytes land, so a collision on either, chance or
// crafted, costs a refused patch and a literal resend, never wrong content.
package delta

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"
)

const (
	// DefaultChunk is the signature chunk size in bytes. 128 splits a 4 KiB
	// block into 32 chunks — a 392-byte unhinted signature (under 10% of the
	// block) buying chunk-granular reuse on the forward path.
	DefaultChunk = 128
	// MinChunk bounds the chunk size from below; smaller chunks make the
	// signature larger than the content it describes.
	MinChunk = 16
	// MaxChunk bounds the chunk size from above (one frame payload must be
	// able to carry many chunks for the codec to be worth anything).
	MaxChunk = 64 << 10
	// MaxTarget bounds the content length a signature or patch may describe,
	// matching the transport's frame payload limit.
	MaxTarget = 64 << 20
	// Unit is the span of new content one hint digest covers: 8 bytes of
	// hint per KiB, against 96 bytes of records for the same KiB at
	// DefaultChunk.
	Unit = 1 << 10

	// SigHeaderLen is a signature's chunk(4) | oldLen(4).
	SigHeaderLen = 8
	// RecordLen is one recorded chunk: weak(4) | strong(8).
	RecordLen = 4 + strongSize
	// PatchOverhead is what a patch costs beyond its ops: the header,
	// chunk(4) | targetLen(4), and the SHA-256 trailer.
	PatchOverhead = patchHeaderLen + verifySize
	// CopyOpLen is one COPY op: opcode(1) | chunkIdx(4) | chunkCount(4).
	CopyOpLen = 9
	// LiteralOpLen is a LITERAL op's header, opcode(1) | length(4); its bytes
	// follow.
	LiteralOpLen = 5

	// strongSize is the length of a chunk's strong hash and of a hint
	// digest (see strongOf).
	strongSize = 8
	// verifySize is the truncated SHA-256 length protecting a whole patch.
	verifySize = 16
	// patchHeaderLen is chunk(4) | targetLen(4).
	patchHeaderLen = 8

	// patch opcodes
	opCopy    = 1 // chunkIdx(4) | chunkCount(4): chunks copied from old
	opLiteral = 2 // length(4) | bytes: verbatim content
)

// Signature describes existing content as fixed-size chunks. A full chunk
// the hint showed unchanged is marked equal — the target holds it at the
// same offset — and carries nothing else; every other chunk is recorded with
// a weak rolling hash (for the O(1) sliding-window probe) and a CRC-32C ‖
// CRC-32 strong hash (for confirmation). A trailing short chunk is recorded
// so lengths round-trip, but Diff never matches against it. The mask and the
// records stay in their wire form: a Signature is its header plus a view of
// them.
type Signature struct {
	// Chunk is the chunk size in bytes, in [MinChunk, MaxChunk].
	Chunk int
	// OldLen is the length of the content the signature describes.
	OldLen int
	// equal holds one bit per full chunk, least significant first: set
	// where the chunk is marked equal.
	equal []byte
	// recs holds one RecordLen record per chunk not marked equal, in chunk
	// order: weak(4) | strong(8).
	recs []byte
}

// weak returns record r's rolling hash.
func (s *Signature) weak(r int32) uint32 {
	return binary.LittleEndian.Uint32(s.recs[int(r)*RecordLen:])
}

// strong returns record r's strong hash, as strongOf packs it: CRC-32C in
// the low word, CRC-32 in the high word.
func (s *Signature) strong(r int32) uint64 {
	return binary.LittleEndian.Uint64(s.recs[int(r)*RecordLen+4:])
}

// isEqual reports whether full chunk i is marked equal.
func (s *Signature) isEqual(i int) bool {
	return s.equal[i/8]&(1<<(i%8)) != 0
}

// numChunks returns how many chunks describe oldLen bytes.
func numChunks(oldLen, chunk int) int {
	return (oldLen + chunk - 1) / chunk
}

// maskLen returns the size of the equal mask over oldLen bytes: one bit per
// full chunk.
func maskLen(oldLen, chunk int) int {
	return (oldLen/chunk + 7) / 8
}

// clampChunk resolves a requested chunk size: 0 selects DefaultChunk,
// out-of-range values are clamped.
func clampChunk(chunk int) int {
	if chunk <= 0 {
		return DefaultChunk
	}
	return min(max(chunk, MinChunk), MaxChunk)
}

// weakSum computes the rsync rolling checksum of p: two 16-bit sums packed
// into one uint32, cheap to slide one byte at a time. The low sum a is the
// byte sum; the high sum b weighs byte i by len(p)-i, which is the sum of a's
// running prefixes, so sixteen bytes add 16·a plus their own bytes weighted
// 16..1. Those per-step sums are taken in 16-bit lanes — byte pairs in four
// lanes per word — and folded into the top lane by one multiply each: every
// lane and every partial lane sum stays under 2^16, so no carry crosses a
// lane and the result is the byte loop's, bit for bit.
func weakSum(p []byte) uint32 {
	const (
		even = 0x00ff00ff00ff00ff
		ones = 0x0001000100010001 // every lane weighed 1 in the top lane
		odd  = 0x0007000500030001 // lane j weighed 7-2j in the top lane
		odd8 = odd + 8*ones       // lane j weighed 15-2j
	)
	var a, b uint32
	for ; len(p) >= 16; p = p[16:] {
		w1 := binary.LittleEndian.Uint64(p)
		w2 := binary.LittleEndian.Uint64(p[8:])
		e1, e2 := w1&even, w2&even             // bytes 0, 2, 4, 6 of each word: <= 255
		s1, s2 := e1+w1>>8&even, e2+w2>>8&even // pairs (2j, 2j+1): <= 510
		// Byte 2j of the first word weighs 16-2j = (15-2j)+1, byte 2j+1
		// weighs 15-2j; the second word's bytes weigh eight less. The top
		// lane sums to at most 510·64 + 255·8 < 2^16.
		b += 16*a + uint32((s1*odd8+s2*odd+(e1+e2)*ones)>>48)
		a += uint32((s1 + s2) * ones >> 48)
	}
	for _, c := range p {
		a += uint32(c)
		b += a
	}
	return a&0xffff | b<<16
}

// weakRoll slides a window-w weak sum one byte: out leaves, in enters. All
// arithmetic is mod 2^16, so uint32 wraparound is harmless.
func weakRoll(sum uint32, w int, out, in byte) uint32 {
	a := sum & 0xffff
	b := sum >> 16
	a = a - uint32(out) + uint32(in)
	b = b - uint32(w)*uint32(out) + a
	return a&0xffff | b<<16
}

// castagnoli is the CRC-32C table; crc32 runs it on the SSE4.2 instruction
// where there is one, and IEEE on carry-less multiply.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// strongOf returns p's strong hash: CRC-32C in the low word, CRC-32 (IEEE)
// in the high word. It is a match filter, not a guarantee: two chunks (or
// units) that collide on it make Diff name the wrong old chunk, and the
// patch's SHA-256 trailer then refuses the rebuilt extent, which goes
// literally.
func strongOf(p []byte) uint64 {
	return uint64(crc32.Checksum(p, castagnoli)) | uint64(crc32.ChecksumIEEE(p))<<32
}

// HintLen returns the size of the hint over n bytes of target: one 8-byte
// digest per Unit, the last unit possibly short.
func HintLen(n int) int {
	return (n + Unit - 1) / Unit * strongSize
}

// AppendHint appends the hint of target to dst: strongOf of every Unit
// bytes, little-endian, the last unit possibly short. It is what the source
// sends with a signature request; a dst with HintLen spare capacity is not
// reallocated.
func AppendHint(dst, target []byte) []byte {
	dst = slices.Grow(dst, HintLen(len(target)))
	for off := 0; off < len(target); off += Unit {
		dst = binary.LittleEndian.AppendUint64(dst, strongOf(target[off:min(off+Unit, len(target))]))
	}
	return dst
}

// SigLen returns the marshaled size of a signature over oldLen bytes with
// equal of its full chunks marked equal; SigLen(oldLen, chunk, 0), the
// unhinted size, bounds every hinted one.
func SigLen(oldLen, chunk, equal int) int {
	chunk = clampChunk(chunk)
	return SigHeaderLen + maskLen(oldLen, chunk) + (numChunks(oldLen, chunk)-equal)*RecordLen
}

// unitMatch answers whether a range of old content lies in units that match
// the hint: units whose strongOf equals the hint's digest for them. Ranges
// are asked in ascending order, so each unit is hashed once.
type unitMatch struct {
	old, hint []byte
	unit      int // the unit last hashed, -1 for none
	ok        bool
}

// covers reports whether every unit old[off:end] touches matches.
func (m *unitMatch) covers(off, end int) bool {
	for u := off / Unit; u*Unit < end; u++ {
		if u != m.unit {
			lo := u * Unit
			m.unit = u
			m.ok = (u+1)*strongSize <= len(m.hint) &&
				strongOf(m.old[lo:min(lo+Unit, len(m.old))]) == binary.LittleEndian.Uint64(m.hint[u*strongSize:])
		}
		if !m.ok {
			return false
		}
	}
	return true
}

// AppendSig appends the marshaled signature of old at the given chunk size
// (see clampChunk), against hint (AppendHint's output over the target; nil
// for none), to dst — chunk(4) | oldLen(4) | equal mask, one bit per full
// chunk | per chunk not marked equal: weak(4) strong(8), little-endian. A
// full chunk is marked equal when every unit it touches matches the hint;
// units the hint does not reach never match. The records are computed where
// they travel; a dst with SigLen(len(old), chunk, 0) spare capacity is not
// reallocated.
func AppendSig(dst, old []byte, chunk int, hint []byte) []byte {
	chunk = clampChunk(chunk)
	n, mask := len(dst), maskLen(len(old), chunk)
	dst = slices.Grow(dst, SigLen(len(old), chunk, 0))[:n+SigHeaderLen+mask]
	binary.LittleEndian.PutUint32(dst[n:], uint32(chunk))
	binary.LittleEndian.PutUint32(dst[n+4:], uint32(len(old)))
	equal := dst[n+SigHeaderLen:] // capacity is reserved: later records never move it
	clear(equal[:mask])
	match := unitMatch{old: old, hint: hint, unit: -1}
	for i, off := 0, 0; off < len(old); i, off = i+1, off+chunk {
		end := min(off+chunk, len(old))
		if end-off == chunk && match.covers(off, end) {
			equal[i/8] |= 1 << (i % 8)
			continue
		}
		k := len(dst)
		dst = dst[:k+RecordLen]
		putRecord(dst[k:], old[off:end])
	}
	return dst
}

// putRecord writes chunk p's signature record at rec. It is its own function
// so that the two hash loops get registers of their own: inlined into
// AppendSig's loop they ran a fifth slower.
func putRecord(rec, p []byte) {
	binary.LittleEndian.PutUint32(rec, weakSum(p))
	binary.LittleEndian.PutUint64(rec[4:], strongOf(p))
}

// Sig computes the unhinted signature of old with the given chunk size (0
// selects DefaultChunk; out-of-range values are clamped): no chunk is marked
// equal, every chunk is recorded.
func Sig(old []byte, chunk int) *Signature {
	chunk = clampChunk(chunk)
	raw := AppendSig(nil, old, chunk, nil)
	mask := SigHeaderLen + maskLen(len(old), chunk)
	return &Signature{Chunk: chunk, OldLen: len(old), equal: raw[SigHeaderLen:mask], recs: raw[mask:]}
}

// Marshal encodes the signature as a flat little-endian blob:
// chunk(4) | oldLen(4) | equal mask | records.
func (s *Signature) Marshal() []byte {
	out := make([]byte, 0, SigHeaderLen+len(s.equal)+len(s.recs))
	out = binary.LittleEndian.AppendUint32(out, uint32(s.Chunk))
	out = binary.LittleEndian.AppendUint32(out, uint32(s.OldLen))
	out = append(out, s.equal...)
	return append(out, s.recs...)
}

// ViewSignature validates a marshaled signature and returns it as a view
// over data: nothing is copied, so the Signature is valid only while data is
// neither modified nor released. The mask may mark full chunks only, and the
// record count must match the chunks it leaves unmarked exactly — trailing
// or missing bytes are an error, never silently tolerated, so every
// signature has one encoding.
func ViewSignature(data []byte) (Signature, error) {
	if len(data) < SigHeaderLen {
		return Signature{}, fmt.Errorf("delta: signature %d bytes, want >= %d", len(data), SigHeaderLen)
	}
	chunk := int(binary.LittleEndian.Uint32(data[0:]))
	oldLen := int(binary.LittleEndian.Uint32(data[4:]))
	if chunk < MinChunk || chunk > MaxChunk {
		return Signature{}, fmt.Errorf("delta: chunk size %d outside [%d, %d]", chunk, MinChunk, MaxChunk)
	}
	if oldLen < 0 || oldLen > MaxTarget {
		return Signature{}, fmt.Errorf("delta: signature describes %d bytes, max %d", oldLen, MaxTarget)
	}
	mask := maskLen(oldLen, chunk)
	if len(data) < SigHeaderLen+mask {
		return Signature{}, fmt.Errorf("delta: signature %d bytes, shorter than its %d-byte equal mask", len(data), mask)
	}
	equal := data[SigHeaderLen : SigHeaderLen+mask]
	if full := oldLen / chunk; full%8 != 0 && equal[mask-1]>>(full%8) != 0 {
		return Signature{}, fmt.Errorf("delta: equal mask marks chunks past the %d full ones", full)
	}
	marked := 0
	for _, b := range equal {
		marked += bits.OnesCount8(b)
	}
	n := numChunks(oldLen, chunk)
	if want := SigHeaderLen + mask + (n-marked)*RecordLen; len(data) != want {
		return Signature{}, fmt.Errorf("delta: signature %d bytes, want %d for %d chunks, %d marked equal", len(data), want, n, marked)
	}
	return Signature{Chunk: chunk, OldLen: oldLen, equal: equal, recs: data[SigHeaderLen+mask:]}, nil
}

// ParseSignature decodes and validates a marshaled signature into one that
// owns its mask and records (see ViewSignature for the rules and for the
// form that does not copy).
func ParseSignature(data []byte) (*Signature, error) {
	s, err := ViewSignature(data)
	if err != nil {
		return nil, err
	}
	owned := make([]byte, len(data)-SigHeaderLen)
	copy(owned, data[SigHeaderLen:])
	s.equal, s.recs = owned[:len(s.equal)], owned[len(s.equal):]
	return &s, nil
}

// patchWriter accumulates a patch's op stream over target, merging adjacent
// COPY chunks into runs. At most one of the two runs is pending at a time,
// and a literal run is a range of target, appended once when it ends.
type patchWriter struct {
	buf     []byte
	target  []byte
	litFrom int // start of the pending literal run in target (-1 = none)
	copyIdx int // first chunk of the pending COPY run (-1 = none)
	copyN   int
}

// flushLit ends the pending literal run at target[:end].
func (w *patchWriter) flushLit(end int) {
	if w.litFrom < 0 {
		return
	}
	w.buf = append(w.buf, opLiteral)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(end-w.litFrom))
	w.buf = append(w.buf, w.target[w.litFrom:end]...)
	w.litFrom = -1
}

func (w *patchWriter) flushCopy() {
	if w.copyN == 0 {
		return
	}
	w.buf = append(w.buf, opCopy)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(w.copyIdx))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(w.copyN))
	w.copyIdx, w.copyN = -1, 0
}

// literalFrom opens a literal run at pos unless one is already open.
func (w *patchWriter) literalFrom(pos int) {
	if w.litFrom < 0 {
		w.flushCopy()
		w.litFrom = pos
	}
}

// copyChunk records that target[pos:pos+chunk] is old chunk idx.
func (w *patchWriter) copyChunk(idx, pos int) {
	w.flushLit(pos)
	if w.copyN > 0 && w.copyIdx+w.copyN == idx {
		w.copyN++
		return
	}
	w.flushCopy()
	w.copyIdx, w.copyN = idx, 1
}

// Differ is the scratch one sender's Diff calls run on: the chunk table and
// the patch buffer are reused from extent to extent, so a steady-state diff
// allocates nothing. The zero value is ready; a Differ is not safe for
// concurrent use.
type Differ struct {
	// rec maps each full chunk to its record, -1 for a chunk marked equal.
	rec []int32
	// head and next are a chained hash table over the recorded full chunks,
	// keyed by weak hash: head[bucket] is the lowest chunk index in the
	// bucket, next[i] the next higher one, -1 ends a chain. Chains mix weak
	// hashes that share a bucket; the probe filters.
	head, next []int32
	shift      int     // a weak hash's bucket is hash*weakMul >> shift
	table      []int32 // backs rec, next and head
	buf        []byte
}

// weakMul spreads a weak hash (two 16-bit sums, both poor in their high
// bits for short chunks) over the table's buckets.
const weakMul = 2654435761

// Diff computes the patch that rebuilds target from the content sig
// describes; see Differ.Diff. The patch is freshly allocated.
func Diff(sig *Signature, target []byte) []byte {
	return new(Differ).Diff(sig, target)
}

// Diff computes the patch that rebuilds target from the content sig
// describes: chunk(4) | targetLen(4) | ops | truncated SHA-256(16) of
// target. Every chunk marked equal that target holds whole is an aligned
// COPY; the gaps between them are rolled over against the recorded full
// chunks, and COPY ops name what matches; everything else travels as
// LITERAL bytes. A signature's trailing short chunk never contributes. The
// returned patch is the Differ's buffer, valid until its next Diff.
func (d *Differ) Diff(sig *Signature, target []byte) []byte {
	chunk := sig.Chunk
	full := sig.OldLen / chunk // the chunks a COPY may name
	indexed := full
	for _, b := range sig.equal {
		indexed -= bits.OnesCount8(b)
	}
	// Index the recorded full chunks by weak hash. Collisions keep every
	// candidate, lowest index first: the strong hash arbitrates. Four buckets
	// or more per chunk leave most buckets empty, so most windows of a
	// literal run slide on without a probe; a signature as large as a peer
	// may send (MaxTarget in MinChunk chunks) gets no more than 2^23 (32 MiB).
	d.shift = 32 - min(bits.Len(uint(indexed))+2, 23)
	buckets := 1 << (32 - d.shift)
	if need := 2*full + buckets; cap(d.table) < need {
		d.table = make([]int32, need)
	}
	d.rec, d.next, d.head = d.table[:full], d.table[full:2*full], d.table[2*full:2*full+buckets]
	for i, r := 0, int32(0); i < full; i++ {
		d.rec[i] = -1
		if !sig.isEqual(i) {
			d.rec[i], r = r, r+1
		}
	}
	for b := range d.head {
		d.head[b] = -1
	}
	for i := full - 1; i >= 0; i-- {
		if r := d.rec[i]; r >= 0 {
			b := sig.weak(r) * weakMul >> d.shift
			d.next[i], d.head[b] = d.head[b], int32(i)
		}
	}
	// One allocation holds every patch no larger than target — all a sender
	// ships — rather than a doubling per literal run.
	w := patchWriter{buf: slices.Grow(d.buf[:0], PatchOverhead+len(target)), target: target, litFrom: -1, copyIdx: -1}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(chunk))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(target)))

	// Walk target gap by gap: each gap ends at the next chunk marked equal
	// that target holds whole, which is copied in place.
	whole := min(full, len(target)/chunk)
	for eq, pos := 0, 0; ; eq++ {
		for eq < whole && d.rec[eq] >= 0 {
			eq++
		}
		end := len(target)
		if eq < whole {
			end = eq * chunk
		}
		d.roll(&w, sig, target[:end], pos)
		if eq == whole {
			break
		}
		w.copyChunk(d.equalSource(&w, sig, target, eq), end)
		pos = end + chunk
	}
	w.flushCopy()
	w.flushLit(len(target))
	verify := trailer(target)
	d.buf = append(w.buf, verify[:]...)
	return d.buf
}

// equalSource returns the old chunk that supplies target's chunk eq, which
// is marked equal: the one continuing the pending COPY run when it holds the
// same bytes — the rule roll follows, so a run that left the grid stays one
// op — else eq itself, in place. A marked chunk's old bytes are target's at
// the same offset, so only a recorded successor needs a hash.
func (d *Differ) equalSource(w *patchWriter, sig *Signature, target []byte, eq int) int {
	chunk, next := sig.Chunk, w.copyIdx+w.copyN
	if w.copyN == 0 || next == eq || next >= len(d.rec) {
		return eq
	}
	window := target[eq*chunk : (eq+1)*chunk]
	if r := d.rec[next]; r >= 0 {
		if sig.strong(r) == strongOf(window) {
			return next
		}
	} else if (next+1)*chunk <= len(target) && bytes.Equal(target[next*chunk:(next+1)*chunk], window) {
		return next
	}
	return eq
}

// roll writes the ops for target[pos:], a gap between chunks marked equal,
// sliding a chunk-wide window over it against the recorded full chunks.
func (d *Differ) roll(w *patchWriter, sig *Signature, target []byte, pos int) {
	chunk := sig.Chunk
	var sum uint32
	fresh := true // sum must be recomputed for the window at pos
	for pos+chunk <= len(target) {
		window := target[pos : pos+chunk]
		// Among strong-verified candidates prefer the one continuing the
		// pending COPY run — repetitive content (all-zero extents) then merges
		// into one op instead of one op per chunk, and content rewritten in
		// place matches without a probe — else take the lowest index. A run
		// is pending only right after a match, so its next chunk is confirmed
		// by the strong hash alone, and the weak sum is computed only when
		// that fails; the strong hash is computed at most once per window.
		matched, hashed := -1, false
		var strong uint64
		if next := w.copyIdx + w.copyN; w.copyN > 0 && next < len(d.rec) && d.rec[next] >= 0 {
			strong, hashed = strongOf(window), true
			if sig.strong(d.rec[next]) == strong {
				matched = next
			}
		}
		if matched < 0 && fresh {
			sum = weakSum(window)
			fresh = false
		}
		for ci := d.head[sum*weakMul>>d.shift]; ci >= 0 && matched < 0; ci = d.next[ci] {
			r := d.rec[ci]
			if sig.weak(r) != sum {
				continue
			}
			if !hashed {
				strong, hashed = strongOf(window), true
			}
			if sig.strong(r) == strong {
				matched = int(ci)
			}
		}
		if matched >= 0 {
			w.copyChunk(matched, pos)
			pos += chunk
			fresh = true
			continue
		}
		w.literalFrom(pos)
		// Slide one byte, and on past every window whose bucket is empty:
		// none of them can match, and the literal run stays open.
		for pos++; pos+chunk <= len(target); pos++ {
			sum = weakRoll(sum, chunk, target[pos-1], target[pos-1+chunk])
			if d.head[sum*weakMul>>d.shift] >= 0 {
				break
			}
		}
	}
	if pos < len(target) {
		w.literalFrom(pos) // tail shorter than one chunk
	}
}

// trailer is the check that makes a patch safe: the truncated SHA-256 of the
// whole target, which Diff appends and AppendApply recomputes over what the
// ops rebuilt before it returns a byte. It is the package's one SHA-256.
func trailer(target []byte) [verifySize]byte {
	sum := sha256.Sum256(target)
	return [verifySize]byte(sum[:verifySize])
}

// Apply rebuilds the target content from old and a patch produced by Diff,
// verifying the patch's SHA-256 trailer over the full result before
// returning it. Any malformed op, out-of-range COPY, length mismatch, or
// hash mismatch returns an error and no bytes — the caller falls back to a
// literal transfer, never to wrong content.
func Apply(old, patch []byte) ([]byte, error) {
	return AppendApply(nil, old, patch)
}

// AppendApply is Apply appending the rebuilt content to dst, which a caller
// that knows the length it expects supplies with that much spare capacity;
// dst grows past it only as far as the patch's own ops earn.
func AppendApply(dst, old, patch []byte) ([]byte, error) {
	if len(patch) < patchHeaderLen+verifySize {
		return nil, fmt.Errorf("delta: patch %d bytes, want >= %d", len(patch), patchHeaderLen+verifySize)
	}
	chunk := int(binary.LittleEndian.Uint32(patch[0:]))
	targetLen := int(binary.LittleEndian.Uint32(patch[4:]))
	if chunk < MinChunk || chunk > MaxChunk {
		return nil, fmt.Errorf("delta: patch chunk size %d outside [%d, %d]", chunk, MinChunk, MaxChunk)
	}
	if targetLen < 0 || targetLen > MaxTarget {
		return nil, fmt.Errorf("delta: patch target %d bytes, max %d", targetLen, MaxTarget)
	}
	ops := patch[patchHeaderLen : len(patch)-verifySize]
	verify := patch[len(patch)-verifySize:]
	fullChunks := len(old) / chunk

	// Grow on demand past 1 MiB; a hostile header can't force the allocation.
	out := slices.Grow(dst, min(targetLen, 1<<20))
	end := len(dst) + targetLen
	for len(ops) > 0 {
		switch op := ops[0]; op {
		case opCopy:
			if len(ops) < CopyOpLen {
				return nil, fmt.Errorf("delta: truncated COPY op")
			}
			idx := int(binary.LittleEndian.Uint32(ops[1:]))
			n := int(binary.LittleEndian.Uint32(ops[5:]))
			ops = ops[CopyOpLen:]
			if n <= 0 || idx < 0 || idx > fullChunks-n {
				return nil, fmt.Errorf("delta: COPY [%d,+%d) outside %d old chunks", idx, n, fullChunks)
			}
			if len(out)+n*chunk > end {
				return nil, fmt.Errorf("delta: ops overflow the declared %d-byte target", targetLen)
			}
			out = append(out, old[idx*chunk:(idx+n)*chunk]...)
		case opLiteral:
			if len(ops) < LiteralOpLen {
				return nil, fmt.Errorf("delta: truncated LITERAL op")
			}
			n := int(binary.LittleEndian.Uint32(ops[1:]))
			ops = ops[LiteralOpLen:]
			if n <= 0 || n > len(ops) {
				return nil, fmt.Errorf("delta: LITERAL of %d bytes with %d remaining", n, len(ops))
			}
			if len(out)+n > end {
				return nil, fmt.Errorf("delta: ops overflow the declared %d-byte target", targetLen)
			}
			out = append(out, ops[:n]...)
			ops = ops[n:]
		default:
			return nil, fmt.Errorf("delta: unknown op %d", op)
		}
	}
	if len(out) != end {
		return nil, fmt.Errorf("delta: ops rebuilt %d bytes, declared %d", len(out)-len(dst), targetLen)
	}
	if sum := trailer(out[len(dst):]); !bytes.Equal(sum[:], verify) {
		return nil, fmt.Errorf("delta: SHA-256 trailer mismatch on reconstructed content")
	}
	return out, nil
}
