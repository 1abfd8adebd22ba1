package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sync"

	"bbmig/internal/bitmap"
)

// Page deltas (docs/WIRE.md §13, §15). Clark et al. measured that a
// migrating guest keeps rewriting a small writable working set; between two
// sends of such a page the guest has usually changed a few bytes of it. A
// page the source has seen dirty therefore travels, whenever that is cheaper,
// as the parts that differ from the bytes the source put on the wire last
// time — QEMU's XBZRLE idea. A delta is a list of records
//
//	(skip uvarint, literal uvarint, literal × unit bytes)
//
// over the page cut in units, with an implicit skip to the end of the page.
// Two forms share it. The word form of a MEM_PAGE_DELTA frame counts in
// 8-byte words and is prefixed with crc32c(base) u32 LE. The byte form of a
// MEM_PAGES batch entry counts in bytes and carries no checksum: the batch
// checks all its entries' bases at once (BaseBook.AppendBaseCheck,
// Memory.ApplyBatch). The canonical form is the encoder's: minimal uvarints,
// maximal runs of units that differ from the base (so every literal unit
// differs, no literal is empty and only the first skip may be zero), nothing
// after the last record, and never more than half a page — a delta that
// large does not pay and the page goes literally. A record's size depends on
// which units changed, never on their values.

// The record units of the two forms.
const (
	WordUnit = 8 // a MEM_PAGE_DELTA frame's
	ByteUnit = 1 // a MEM_PAGES batch entry's
)

// crcLen is the size of a base checksum, a word-form delta's prefix and a
// batch's trailer.
const crcLen = 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// headLen is the size of what precedes the records in the given form.
func headLen(unit int) int {
	if unit == WordUnit {
		return crcLen
	}
	return 0
}

// nextDiff returns the offset of the first byte at or after from where a and
// b differ, or len(a) when none does.
func nextDiff(a, b []byte, from int) int {
	i := from
	for ; i+8 <= len(a); i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for ; i < len(a) && a[i] == b[i]; i++ {
	}
	return i
}

// AppendPageDelta appends to dst the delta in the given form (WordUnit or
// ByteUnit) that turns base into cur, and reports whether it pays: it is at
// most half a page. When it does not, dst comes back unchanged.
func AppendPageDelta(dst, base, cur []byte, unit int) ([]byte, bool) {
	n := len(cur)
	if len(base) != n || n%unit != 0 {
		return dst, false
	}
	start, units := len(dst), n/unit
	if unit == WordUnit {
		dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(base, castagnoli))
	}
	for prev := 0; ; {
		lo := nextDiff(base, cur, prev*unit) / unit
		if lo == units {
			return dst, true
		}
		hi := lo + 1
		for hi < units && !bytes.Equal(base[hi*unit:(hi+1)*unit], cur[hi*unit:(hi+1)*unit]) {
			hi++
		}
		dst = binary.AppendUvarint(dst, uint64(lo-prev))
		dst = binary.AppendUvarint(dst, uint64(hi-lo))
		dst = append(dst, cur[lo*unit:hi*unit]...)
		if len(dst)-start > n/2 {
			return dst[:start], false
		}
		prev = hi
	}
}

// forEachLiteral walks the records of a delta over a page of pageLen bytes
// cut in units, handing fn each literal run as (byte offset, bytes), and
// fails on anything but the canonical spelling.
func forEachLiteral(unit, pageLen int, records []byte, fn func(off int, data []byte) error) error {
	units := pageLen / unit
	for pos := 0; len(records) > 0; {
		skip, rest, ok1 := bitmap.MinimalUvarint(records)
		lit, rest, ok2 := bitmap.MinimalUvarint(rest)
		if !ok1 || !ok2 {
			return fmt.Errorf("vm: page delta: truncated or non-minimal count after unit %d", pos)
		}
		if lit == 0 || (skip == 0 && pos > 0) {
			return fmt.Errorf("vm: page delta: empty or touching literal after unit %d", pos)
		}
		left := uint64(units - pos)
		if skip > left || lit > left-skip || lit*uint64(unit) > uint64(len(rest)) {
			return fmt.Errorf("vm: page delta: literal past the end of the page or payload after unit %d", pos)
		}
		lo := pos + int(skip)
		pos = lo + int(lit)
		if err := fn(lo*unit, rest[:int(lit)*unit]); err != nil {
			return err
		}
		records = rest[int(lit)*unit:]
	}
	return nil
}

// checkDelta validates the records of a delta in the given form against
// page, its base: at most half a page, canonical, every literal unit
// different from the base's.
func checkDelta(page, records []byte, unit int) error {
	if len(page)%unit != 0 || len(records) > len(page)/2 {
		return fmt.Errorf("vm: page delta of %d bytes for a %d-byte page", len(records), len(page))
	}
	return forEachLiteral(unit, len(page), records, func(off int, data []byte) error {
		for i := 0; i < len(data); i += unit {
			if bytes.Equal(data[i:i+unit], page[off+i:off+i+unit]) {
				return fmt.Errorf("vm: page delta: literal at byte %d equals the base", off+i)
			}
		}
		return nil
	})
}

// patch writes the literals of records that checkDelta accepted into page.
func patch(page, records []byte, unit int) {
	forEachLiteral(unit, len(page), records, func(off int, data []byte) error {
		copy(page[off:], data)
		return nil
	})
}

// ApplyPageDelta rewrites page, which must hold the delta's base, into the
// content a word-form delta describes. The whole payload is validated first —
// the base checksum against page itself, then every record against the
// canonical form — so on any error page is untouched.
func ApplyPageDelta(page, payload []byte) error {
	if len(payload) < crcLen || len(payload) > len(page)/2 {
		return fmt.Errorf("vm: page delta of %d bytes for a %d-byte page", len(payload), len(page))
	}
	if binary.LittleEndian.Uint32(payload) != crc32.Checksum(page, castagnoli) {
		return errors.New("vm: page delta against a base this page does not hold")
	}
	if err := checkDelta(page, payload[crcLen:], WordUnit); err != nil {
		return err
	}
	patch(page, payload[crcLen:], WordUnit)
	return nil
}

// ApplyDelta applies a word-form page delta to page n, read-modify-write
// under the page lock. A page that was never written here, a base checksum
// that does not match this side's copy, or a payload that is not canonical is
// an error, and the page is left exactly as it was.
func (m *Memory) ApplyDelta(n int, payload []byte) error {
	if err := m.check(n); err != nil {
		return err
	}
	m.mu.Lock()
	p := m.pages[n]
	if p == nil {
		m.mu.Unlock()
		return fmt.Errorf("vm: page %d: delta for a page never received", n)
	}
	err := ApplyPageDelta(p, payload)
	m.mu.Unlock()
	if err != nil {
		return fmt.Errorf("%w (page %d)", err, n)
	}
	m.writes.Add(1)
	if m.tracking.Load() {
		m.dirty.Set(n)
	}
	return nil
}

// ApplyBatch applies the count entries of a MEM_PAGES batch, entry i being
// page and body: a whole page overwrites the page, anything shorter is a
// byte-form delta against it. baseCheck is the batch's CRC-32C of its delta
// entries' bases in entry order. Everything is checked before any entry is
// written — each delta's page held here, its records canonical against it,
// and the bases together against baseCheck — so on error memory is
// untouched.
func (m *Memory) ApplyBatch(count int, entry func(i int) (page int, body []byte), baseCheck uint32) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var crc uint32
	deltas := 0
	for i := 0; i < count; i++ {
		n, body := entry(i)
		if err := m.check(n); err != nil {
			return err
		}
		if len(body) == m.pageSize {
			continue
		}
		p := m.pages[n]
		if p == nil {
			return fmt.Errorf("vm: page %d: delta for a page never received", n)
		}
		if err := checkDelta(p, body, ByteUnit); err != nil {
			return fmt.Errorf("%w (page %d)", err, n)
		}
		crc = crc32.Update(crc, castagnoli, p)
		deltas++
	}
	if deltas > 0 && crc != baseCheck {
		return fmt.Errorf("vm: %d page deltas against bases this memory does not hold", deltas)
	}
	for i := 0; i < count; i++ {
		n, body := entry(i)
		if len(body) == m.pageSize {
			if m.pages[n] == nil {
				m.pages[n] = make([]byte, m.pageSize)
			}
			copy(m.pages[n], body)
		} else {
			patch(m.pages[n], body, ByteUnit)
		}
		if m.tracking.Load() {
			m.dirty.Set(n)
		}
	}
	m.writes.Add(int64(count))
	return nil
}

// basePool recycles base buffers across books (and across a book's Drop).
var basePool sync.Pool // of *[]byte

// BaseBook is the migration source's record of the working set W — the pages
// it has seen dirty — and, for each page of W it has sent, the exact bytes it
// put on the wire last time (the page's base). It decides what happens to
// each page of a send pass. In the freeze, which must send everything, a
// page with a base travels as a delta when that pays and literally
// otherwise. In a pre-copy pass, which may leave a page to the dirty tracker:
//
//   - a page with a base that is already dirty again is left out, exactly as
//     any re-dirtied unit is: the tracker owes it, and it will cost its
//     changed bytes whenever it travels;
//   - a page of W without a base travels literally now, even when it is dirty
//     again — it owes one literal either way, and sent now it has a base for
//     every later send, the freeze's above all;
//   - a page with a base that is in the pass again although it is not dirty
//     right now was dirtied in two consecutive windows: it is hot in Clark et
//     al.'s sense, so while the pass's deferred deltas fit the freeze budget
//     it is handed back to the tracker and rides the freeze once, as a few
//     bytes, instead of being sent now and in all likelihood again; past the
//     budget its delta goes now. When its delta does not pay it goes
//     literally and is re-based;
//   - a page outside W travels literally and leaves nothing behind.
//
// In either kind of pass a page whose bytes equal its base is not sent at
// all: the destination already holds them.
//
// A delta is framed in the form of the frame it rides: the word form in a
// MEM_PAGE_DELTA frame, the byte form in a MEM_PAGES batch, whose one base
// check the book folds as it frames (AppendBaseCheck).
//
// The book holds at most one page-sized buffer per page of W, never the
// guest's RAM. Not safe for concurrent use: one goroutine sends pages.
type BaseBook struct {
	mem      *Memory
	hot      *bitmap.Bitmap // W
	bases    map[int][]byte
	cur      []byte // the page being framed; becomes its base when one is kept
	enc      []byte // delta payload scratch
	deltas   int
	budget   int    // delta bytes one pass may leave to the freeze
	deferred int    // delta bytes this pass has left to it so far
	check    uint32 // CRC-32C of the bases of the byte-form deltas since the last AppendBaseCheck
	checked  bool   // whether check covers any
}

// NewBaseBook returns an empty book over mem: no page seen dirty, no base.
// freezePages is the dirty set the pre-copy stop rule lets the freeze carry;
// its bytes are what one pass may defer to the freeze as deltas.
func NewBaseBook(mem *Memory, freezePages int) *BaseBook {
	return &BaseBook{
		mem: mem, hot: bitmap.New(mem.numPages), bases: make(map[int][]byte),
		budget: freezePages * mem.pageSize,
	}
}

func (b *BaseBook) buf() []byte {
	if p, _ := basePool.Get().(*[]byte); p != nil && len(*p) == b.mem.pageSize {
		return *p
	}
	return make([]byte, b.mem.pageSize)
}

// SawDirty opens a pre-copy pass over set, a swapped-out dirty bitmap: its
// pages join W.
func (b *BaseBook) SawDirty(set *bitmap.Bitmap) {
	b.hot.Union(set)
	b.deferred = 0
}

// Frame returns the payload to send for page n and whether it is a delta in
// the form of unit (WordUnit or ByteUnit) or the literal page; a nil payload
// leaves the page out of the pass, because the tracker owes it or because it
// has not changed since it was last sent. live is the tracker view of a
// pre-copy pass, or the zero View for a pass that must send what has changed.
// The payload is valid until the next call.
func (b *BaseBook) Frame(n int, live bitmap.View, unit int) (payload []byte, delta bool, err error) {
	base, redirtied := b.bases[n], live.Test(n)
	if redirtied {
		b.hot.Set(n)
		if base != nil {
			return nil, false, nil
		}
	}
	if b.cur == nil {
		b.cur = b.buf()
	}
	if err := b.mem.ReadPage(n, b.cur); err != nil {
		return nil, false, err
	}
	if base == nil {
		if !b.hot.Test(n) {
			return b.cur, false, nil
		}
		b.bases[n], b.cur = b.cur, nil
		return b.bases[n], false, nil
	}
	var pays bool
	if b.enc, pays = AppendPageDelta(b.enc[:0], base, b.cur, unit); !pays {
		b.bases[n], b.cur = b.cur, base
		return b.bases[n], false, nil
	}
	if len(b.enc) == headLen(unit) { // no record: the destination holds these very bytes
		return nil, false, nil
	}
	if live != (bitmap.View{}) && b.mem.tracking.Load() && b.deferred+len(b.enc) <= b.budget {
		b.deferred += len(b.enc)
		b.mem.dirty.Set(n)
		return nil, false, nil
	}
	b.deltas++
	if unit == ByteUnit {
		b.check, b.checked = crc32.Update(b.check, castagnoli, base), true
	}
	b.bases[n], b.cur = b.cur, base
	return b.enc, true, nil
}

// AppendBaseCheck ends a MEM_PAGES batch: it appends to dst the CRC-32C of
// the bases of the byte-form deltas framed since the last call, in the order
// they were framed, or nothing when there were none.
func (b *BaseBook) AppendBaseCheck(dst []byte) []byte {
	if !b.checked {
		return dst
	}
	dst = binary.LittleEndian.AppendUint32(dst, b.check)
	b.check, b.checked = 0, false
	return dst
}

// Drop forgets every base, keeping W: after a reconnect frames in flight are
// unconfirmed, so no base is known to be what the destination holds and
// every page owed goes literally (and is based afresh).
func (b *BaseBook) Drop() {
	b.check, b.checked = 0, false
	for n, base := range b.bases {
		basePool.Put(&base)
		delete(b.bases, n)
	}
}

// TakeDeltas returns how many pages travelled as deltas since the last call.
func (b *BaseBook) TakeDeltas() int {
	n := b.deltas
	b.deltas = 0
	return n
}

// Hot returns |W|, the number of pages seen dirty.
func (b *BaseBook) Hot() int { return b.hot.Count() }

// Bases returns how many bases the book holds.
func (b *BaseBook) Bases() int { return len(b.bases) }
