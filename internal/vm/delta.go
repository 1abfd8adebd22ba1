package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"bbmig/internal/bitmap"
)

// Page deltas (docs/WIRE.md §13). Clark et al. measured that a migrating
// guest keeps rewriting a small writable working set; between two sends of
// such a page the guest has usually changed a few words of it. A page the
// source has seen dirty therefore travels, whenever that is cheaper, as the
// 8-byte words that differ from the bytes the source put on the wire last
// time — QEMU's XBZRLE idea at word granularity. The payload is
//
//	crc32c(base) u32 LE ‖ records of (skip uvarint, literal uvarint, literal × 8 B)
//
// with both counts in words and an implicit skip to the end of the page. The
// canonical form is the encoder's: minimal uvarints, maximal runs of words
// that differ from the base (so every literal word differs, no literal is
// empty and only the first skip may be zero), nothing after the last
// record, and never more than half a page — a delta that large does not
// pay and the page goes literally. A record's size depends on which words
// changed, never on their values.

const deltaWord = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func wordAt(p []byte, w int) uint64 { return binary.LittleEndian.Uint64(p[w*deltaWord:]) }

// AppendPageDelta appends to dst the payload that turns base into cur and
// reports whether the delta pays: it is at most half a page. When it does
// not, dst comes back unchanged.
func AppendPageDelta(dst, base, cur []byte) ([]byte, bool) {
	n := len(cur)
	if len(base) != n || n%deltaWord != 0 {
		return dst, false
	}
	start, words := len(dst), n/deltaWord
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(base, castagnoli))
	for prev := 0; ; {
		lo := prev
		for lo < words && wordAt(base, lo) == wordAt(cur, lo) {
			lo++
		}
		if lo == words {
			return dst, true
		}
		hi := lo + 1
		for hi < words && wordAt(base, hi) != wordAt(cur, hi) {
			hi++
		}
		dst = binary.AppendUvarint(dst, uint64(lo-prev))
		dst = binary.AppendUvarint(dst, uint64(hi-lo))
		dst = append(dst, cur[lo*deltaWord:hi*deltaWord]...)
		if len(dst)-start > n/2 {
			return dst[:start], false
		}
		prev = hi
	}
}

// forEachLiteral walks the records of a delta body over a page of the given
// word count, handing fn each literal run as (first word, bytes), and fails
// on anything but the canonical spelling.
func forEachLiteral(words int, records []byte, fn func(lo int, data []byte) error) error {
	for pos := 0; len(records) > 0; {
		skip, rest, ok1 := bitmap.MinimalUvarint(records)
		lit, rest, ok2 := bitmap.MinimalUvarint(rest)
		if !ok1 || !ok2 {
			return fmt.Errorf("vm: page delta: truncated or non-minimal count after word %d", pos)
		}
		if lit == 0 || (skip == 0 && pos > 0) {
			return fmt.Errorf("vm: page delta: empty or touching literal after word %d", pos)
		}
		left := uint64(words - pos)
		if skip > left || lit > left-skip || lit*deltaWord > uint64(len(rest)) {
			return fmt.Errorf("vm: page delta: literal past the end of the page or payload after word %d", pos)
		}
		lo := pos + int(skip)
		pos = lo + int(lit)
		if err := fn(lo, rest[:lit*deltaWord]); err != nil {
			return err
		}
		records = rest[lit*deltaWord:]
	}
	return nil
}

// ApplyPageDelta rewrites page, which must hold the delta's base, into the
// content the delta describes. The whole payload is validated first — the
// base checksum against page itself, then every record against the
// canonical form — so on any error page is untouched.
func ApplyPageDelta(page, payload []byte) error {
	if len(page)%deltaWord != 0 || len(payload) < 4 || len(payload) > len(page)/2 {
		return fmt.Errorf("vm: page delta of %d bytes for a %d-byte page", len(payload), len(page))
	}
	if binary.LittleEndian.Uint32(payload) != crc32.Checksum(page, castagnoli) {
		return errors.New("vm: page delta against a base this page does not hold")
	}
	words, records := len(page)/deltaWord, payload[4:]
	err := forEachLiteral(words, records, func(lo int, data []byte) error {
		for w := 0; w < len(data)/deltaWord; w++ {
			if wordAt(data, w) == wordAt(page, lo+w) {
				return fmt.Errorf("vm: page delta: literal word %d equals the base", lo+w)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return forEachLiteral(words, records, func(lo int, data []byte) error {
		copy(page[lo*deltaWord:], data)
		return nil
	})
}

// ApplyDelta applies a page-delta payload to page n, read-modify-write under
// the page lock. A page that was never written here, a base checksum that
// does not match this side's copy, or a payload that is not canonical is an
// error, and the page is left exactly as it was.
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
//     changed words whenever it travels;
//   - a page of W without a base travels literally now, even when it is dirty
//     again — it owes one literal either way, and sent now it has a base for
//     every later send, the freeze's above all;
//   - a page with a base that is in the pass again although it is not dirty
//     right now was dirtied in two consecutive windows: it is hot in Clark et
//     al.'s sense, so while the pass's deferred deltas fit the freeze budget
//     it is handed back to the tracker and rides the freeze once, as a few
//     words, instead of being sent now and in all likelihood again; past the
//     budget its delta goes now. When its delta does not pay it goes
//     literally and is re-based;
//   - a page outside W travels literally and leaves nothing behind.
//
// In either kind of pass a page whose bytes equal its base is not sent at
// all: the destination already holds them.
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
	budget   int // delta bytes one pass may leave to the freeze
	deferred int // delta bytes this pass has left to it so far
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

// Frame returns the payload to send for page n and whether it is a delta (a
// MEM_PAGE_DELTA frame) or the literal page; a nil payload leaves the page
// out of the pass, because the tracker owes it or because it has not changed
// since it was last sent. live is the tracker view of a pre-copy pass, or the
// zero View for a pass that must send what has changed. The payload is valid
// until the next call.
func (b *BaseBook) Frame(n int, live bitmap.View) (payload []byte, delta bool, err error) {
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
	if b.enc, pays = AppendPageDelta(b.enc[:0], base, b.cur); !pays {
		b.bases[n], b.cur = b.cur, base
		return b.bases[n], false, nil
	}
	if len(b.enc) == 4 { // no record: the destination holds these very bytes
		return nil, false, nil
	}
	if live != (bitmap.View{}) && b.mem.tracking.Load() && b.deferred+len(b.enc) <= b.budget {
		b.deferred += len(b.enc)
		b.mem.dirty.Set(n)
		return nil, false, nil
	}
	b.deltas++
	b.bases[n], b.cur = b.cur, base
	return b.enc, true, nil
}

// Drop forgets every base, keeping W: after a reconnect frames in flight are
// unconfirmed, so no base is known to be what the destination holds and
// every page owed goes literally (and is based afresh).
func (b *BaseBook) Drop() {
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
