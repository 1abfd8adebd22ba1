package vm

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"bbmig/internal/bitmap"
)

// patterned returns a page whose every word is distinct and non-zero.
func patterned(seed byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = byte(i*31) ^ seed
	}
	for w := 0; w < PageSize/8; w++ {
		binary.LittleEndian.PutUint16(p[w*8:], uint16(w+1))
	}
	return p
}

// touch changes word w of p.
func touch(p []byte, w int) { p[w*8+7] ^= 0x5a }

// withCRC prefixes records with the checksum of base.
func withCRC(base []byte, records ...byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, crc32.Checksum(base, castagnoli)), records...)
}

func TestPageDeltaRoundTrip(t *testing.T) {
	base := patterned(1)
	for _, tc := range []struct {
		name  string
		words []int
		size  int // payload bytes; 0: the delta must not pay
	}{
		{"unchanged", nil, 4},
		{"first word", []int{0}, 4 + 2 + 8},
		{"last word", []int{511}, 4 + 3 + 8},
		{"one run", []int{7, 8, 9}, 4 + 2 + 24},
		{"two runs", []int{0, 2}, 4 + 2 + 8 + 2 + 8},
		{"far apart", []int{1, 300}, 4 + 2 + 8 + 3 + 8}, // the second skip needs two uvarint bytes
		{"half a page less one record", seq(0, 252), 4 + 3 + 252*8},
		{"more than half a page", seq(0, 256), 0},
		{"every other word", everyOther(0, 512), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := append([]byte(nil), base...)
			for _, w := range tc.words {
				touch(cur, w)
			}
			scratch := []byte{0xaa}
			payload, pays := AppendPageDelta(scratch, base, cur, WordUnit)
			if !pays {
				if tc.size != 0 {
					t.Fatal("delta did not pay")
				}
				if !bytes.Equal(payload, scratch) {
					t.Fatalf("refused delta left %d bytes behind", len(payload)-1)
				}
				return
			}
			payload = payload[1:]
			if len(payload) != tc.size {
				t.Fatalf("payload is %d bytes, want %d", len(payload), tc.size)
			}
			page := append([]byte(nil), base...)
			if err := ApplyPageDelta(page, payload); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(page, cur) {
				t.Fatal("applied delta does not reproduce the page")
			}
		})
	}
}

func seq(lo, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func everyOther(lo, hi int) []int {
	var out []int
	for w := lo; w < hi; w += 2 {
		out = append(out, w)
	}
	return out
}

// TestPageDeltaRejects feeds the decoder every non-canonical spelling and a
// wrong base: each is refused and the page is untouched.
func TestPageDeltaRejects(t *testing.T) {
	base := patterned(2)
	word := bytes.Repeat([]byte{0xee}, 8)
	rec := func(skip, lit byte, words ...[]byte) []byte {
		out := []byte{skip, lit}
		for _, w := range words {
			out = append(out, w...)
		}
		return out
	}
	cases := map[string][]byte{
		"too short for a checksum": {1, 2, 3},
		"wrong base":               append([]byte{0, 0, 0, 0}, rec(0, 1, word)...),
		"zero-length literal":      withCRC(base, rec(3, 0)...),
		"touching literals":        withCRC(base, append(rec(0, 1, word), rec(0, 1, word)...)...),
		"overlapping skip":         withCRC(base, append(rec(0, 1, word), 0xff, 0x7f, 1)...), // skip far past the page
		"literal past the page":    withCRC(base, append([]byte{0xff, 0x03, 2}, append(word, word...)...)...),
		"literal past the payload": withCRC(base, rec(0, 2, word)...),
		"trailing garbage":         withCRC(base, append(rec(0, 1, word), 9)...),
		"overlong uvarint":         withCRC(base, append([]byte{0x80, 0x00, 1}, word...)...),
		"literal equal to base":    withCRC(base, rec(0, 1, base[:8])...),
		"over half a page":         withCRC(base, append([]byte{0, 0x81, 0x02}, bytes.Repeat(word, 257)...)...),
	}
	for name, payload := range cases {
		page := append([]byte(nil), base...)
		if err := ApplyPageDelta(page, payload); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !bytes.Equal(page, base) {
			t.Errorf("%s: page modified by a refused delta", name)
		}
	}
	if err := ApplyPageDelta(make([]byte, 100), withCRC(make([]byte, 100))); err == nil {
		t.Error("delta accepted for a page that is not a whole number of words")
	}
}

// TestPageDeltaByteForm: the byte form records single bytes, carries no
// checksum, and applies back; what the word form spends a whole word on, it
// spends one byte on.
func TestPageDeltaByteForm(t *testing.T) {
	base := patterned(4)
	for _, tc := range []struct {
		name  string
		bytes []int
		size  int // payload bytes; 0: the delta must not pay
	}{
		{"unchanged", nil, 0 + 0},
		{"first byte", []int{0}, 2 + 1},
		{"one word's last byte", []int{7}, 2 + 1},
		{"one run", []int{8, 9, 10}, 2 + 3},
		{"two runs", []int{0, 2}, 2 + 1 + 2 + 1},
		{"far apart", []int{1, 3000}, 2 + 1 + 3 + 1}, // the second skip needs two uvarint bytes
		{"every third byte", everyNth(0, PageSize, 3), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := append([]byte(nil), base...)
			for _, b := range tc.bytes {
				cur[b] ^= 0x5a
			}
			payload, pays := AppendPageDelta(nil, base, cur, ByteUnit)
			if pays != (tc.size != 0 || tc.bytes == nil) || pays && len(payload) != tc.size {
				t.Fatalf("payload %d bytes (pays %v), want %d", len(payload), pays, tc.size)
			}
			if !pays {
				return
			}
			page := append([]byte(nil), base...)
			if err := applyForm(page, payload, ByteUnit); err != nil || !bytes.Equal(page, cur) {
				t.Fatalf("applied delta does not reproduce the page: %v", err)
			}
		})
	}
	for name, records := range map[string][]byte{
		"zero-length literal":   {3, 0},
		"touching literals":     {0, 1, ^base[0], 0, 1, ^base[1]},
		"literal equal to base": {0, 2, ^base[0], base[1]},
		"literal past the page": {0xff, 0x1f, 2, 1, 2},
		"trailing garbage":      {0, 1, ^base[0], 9},
		"overlong uvarint":      {0x80, 0x00, 1, ^base[0]},
		"over half a page":      append([]byte{0, 0x81, 0x10}, bytes.Repeat([]byte{0xff}, 2049)...),
	} {
		page := append([]byte(nil), base...)
		if err := applyForm(page, records, ByteUnit); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !bytes.Equal(page, base) {
			t.Errorf("%s: page modified by a refused delta", name)
		}
	}
}

func everyNth(lo, hi, n int) []int {
	var out []int
	for i := lo; i < hi; i += n {
		out = append(out, i)
	}
	return out
}

// TestMemoryApplyBatch: a batch whose base check, page or records are wrong
// is refused whole — no entry of it written, not even the literal before the
// bad delta — and a right one lands whole.
func TestMemoryApplyBatch(t *testing.T) {
	type entry struct {
		page int
		body []byte
	}
	m := NewMemory(8, PageSize)
	for n := 2; n <= 3; n++ {
		if err := m.WritePage(n, patterned(byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	delta := func(n int, bytesAt ...int) []byte {
		cur := patterned(byte(n))
		for _, b := range bytesAt {
			cur[b] ^= 0x5a
		}
		d, _ := AppendPageDelta(nil, patterned(byte(n)), cur, ByteUnit)
		return d
	}
	check := crc32.Update(crc32.Checksum(patterned(2), castagnoli), castagnoli, patterned(3))
	good := []entry{{1, patterned(0x11)}, {2, delta(2, 5)}, {3, delta(3, 6, 4000)}}
	apply := func(es []entry, sum uint32) error {
		return m.ApplyBatch(len(es), func(i int) (int, []byte) { return es[i].page, es[i].body }, sum)
	}
	for name, tc := range map[string]struct {
		es  []entry
		sum uint32
	}{
		"wrong base check":          {good, check + 1},
		"bases in another order":    {good, crc32.Update(crc32.Checksum(patterned(3), castagnoli), castagnoli, patterned(2))},
		"delta for a page not held": {append(good, entry{4, delta(4, 0)}), check},
		"non-canonical delta":       {[]entry{good[0], good[1], {3, []byte{0, 1, patterned(3)[0]}}}, check},
		"page outside memory":       {append(good, entry{8, patterned(0)}), check},
	} {
		if err := apply(tc.es, tc.sum); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if m.AllocatedPages() != 2 || m.Writes() != 2 {
			t.Fatalf("%s: refused batch wrote (%d pages, %d writes)", name, m.AllocatedPages(), m.Writes())
		}
	}
	m.StartTracking()
	if err := apply(good, check); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	for _, want := range []struct {
		page int
		data []byte
	}{{1, patterned(0x11)}, {2, patterned(2)}, {3, patterned(3)}} {
		if err := m.ReadPage(want.page, got); err != nil {
			t.Fatal(err)
		}
		switch want.page {
		case 2:
			want.data[5] ^= 0x5a
		case 3:
			want.data[6] ^= 0x5a
			want.data[4000] ^= 0x5a
		}
		if !bytes.Equal(got, want.data) {
			t.Fatalf("page %d after the batch differs", want.page)
		}
	}
	if dirty := m.StopTracking(); dirty.Count() != 3 || m.Writes() != 5 {
		t.Fatalf("batch of 3 dirtied %d pages, %d writes in all", dirty.Count(), m.Writes())
	}
}

func TestMemoryApplyDelta(t *testing.T) {
	m := NewMemory(8, PageSize)
	base, cur := patterned(3), patterned(3)
	touch(cur, 5)
	payload, _ := AppendPageDelta(nil, base, cur, WordUnit)

	if err := m.ApplyDelta(2, payload); err == nil || !strings.Contains(err.Error(), "page 2") {
		t.Fatalf("delta for a page never written: %v", err)
	}
	if m.AllocatedPages() != 0 {
		t.Fatal("refused delta allocated the page")
	}
	if err := m.ApplyDelta(8, payload); err == nil {
		t.Fatal("delta for a page outside memory accepted")
	}
	if err := m.WritePage(2, base); err != nil {
		t.Fatal(err)
	}
	m.StartTracking()
	if err := m.ApplyDelta(2, payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := m.ReadPage(2, got); err != nil || !bytes.Equal(got, cur) {
		t.Fatalf("page after delta differs (%v)", err)
	}
	if !m.StopTracking().Test(2) {
		t.Fatal("applied delta did not dirty the page")
	}
	// The same delta again: its base is gone.
	if err := m.ApplyDelta(2, payload); err == nil || !strings.Contains(err.Error(), "page 2") {
		t.Fatalf("stale delta: %v", err)
	}
	if err := m.ReadPage(2, got); err != nil || !bytes.Equal(got, cur) {
		t.Fatal("refused delta modified the page")
	}
}

func TestStopTrackingDrains(t *testing.T) {
	m := NewMemory(16, PageSize)
	m.StartTracking()
	m.WritePage(3, patterned(0))
	if got := m.StopTracking(); got.Count() != 1 || !got.Test(3) {
		t.Fatalf("StopTracking returned %v", got)
	}
	if m.Tracking() || m.DirtyCount() != 0 {
		t.Fatal("StopTracking left logging on or dirt behind")
	}
}

// book is a BaseBook over a small memory with every page written once.
func book(t *testing.T, freezePages int) (*Memory, *BaseBook) {
	t.Helper()
	m := NewMemory(16, PageSize)
	for n := 0; n < 16; n++ {
		if err := m.WritePage(n, patterned(byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	m.StartTracking()
	return m, NewBaseBook(m, freezePages)
}

func frame(t *testing.T, b *BaseBook, n int, live bitmap.View) (payload []byte, delta bool) {
	t.Helper()
	payload, delta, err := b.Frame(n, live, WordUnit)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), payload...), delta
}

// rewrite changes the given words of page n in m (none: rewrites it as is).
func rewrite(t *testing.T, m *Memory, n int, words ...int) []byte {
	t.Helper()
	p := make([]byte, PageSize)
	if err := m.ReadPage(n, p); err != nil {
		t.Fatal(err)
	}
	for _, w := range words {
		touch(p, w)
	}
	if err := m.WritePage(n, p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBaseBookRule walks one page through every branch of the send rule.
func TestBaseBookRule(t *testing.T) {
	m, b := book(t, 1)
	live, must := m.DirtyView(), bitmap.View{}

	// Cold page: literal, nothing kept.
	if p, delta := frame(t, b, 0, live); delta || !bytes.Equal(p, patterned(0)) || b.Bases() != 0 {
		t.Fatal("cold page did not travel as a bare literal")
	}
	// A page seen dirty before the pass: literal, base kept.
	rewrite(t, m, 1, 4)
	b.SawDirty(m.SwapDirty())
	if p, delta := frame(t, b, 1, live); delta || len(p) != PageSize || b.Bases() != 1 {
		t.Fatal("working-set page did not leave a base")
	}
	// A page found dirty at cut time with no base: sent now, not skipped.
	want := rewrite(t, m, 2, 9)
	if p, delta := frame(t, b, 2, live); delta || !bytes.Equal(p, want) || b.Bases() != 2 || b.Hot() != 2 {
		t.Fatal("re-dirtied page without a base was not sent literally with a base")
	}
	// With a base and dirty again: left to the tracker, unread.
	if p, _ := frame(t, b, 2, live); p != nil {
		t.Fatal("re-dirtied page with a base was not left out")
	}
	// In the next pass, clean right now, delta pays: deferred to the freeze
	// and handed back to the tracker.
	rewrite(t, m, 1, 7)
	b.SawDirty(m.SwapDirty())
	if p, _ := frame(t, b, 1, live); p != nil || !m.DirtyView().Test(1) {
		t.Fatal("hot page with a cheap delta was not deferred to the freeze")
	}
	// The freeze sends it as the one changed word.
	if p, delta := frame(t, b, 1, must); !delta || len(p) != 4+2+8 {
		t.Fatalf("freeze sent %d bytes (delta %v), want a one-word delta", len(p), delta)
	}
	// The base moved with the delta: the same page again has nothing to say,
	// and nothing is sent for it.
	if p, _ := frame(t, b, 1, must); p != nil {
		t.Fatal("unchanged page was sent again")
	}
	if b.TakeDeltas() != 1 || b.TakeDeltas() != 0 {
		t.Fatal("delta count wrong")
	}
	// A whole-page rewrite does not pay: literal, re-based.
	if err := m.WritePage(1, patterned(0x77)); err != nil {
		t.Fatal(err)
	}
	m.SwapDirty()
	if p, delta := frame(t, b, 1, live); delta || !bytes.Equal(p, patterned(0x77)) {
		t.Fatal("whole-page rewrite did not travel literally")
	}
	rewrite(t, m, 1, 0)
	if p, delta := frame(t, b, 1, must); !delta || len(p) != 4+2+8 {
		t.Fatal("literal resend did not re-base the page")
	}
	// In a batch the same change is one byte, and the batch's base check
	// covers the base it was cut against.
	if b.AppendBaseCheck(nil) != nil {
		t.Fatal("base check without a byte-form delta")
	}
	was := rewrite(t, m, 1)
	cur := rewrite(t, m, 1, 3)
	if p, delta, err := b.Frame(1, must, ByteUnit); err != nil || !delta || len(p) != 2+1 {
		t.Fatalf("batched freeze sent %d bytes (delta %v, %v), want a one-byte delta", len(p), delta, err)
	}
	if sum := b.AppendBaseCheck(nil); !bytes.Equal(sum, binary.LittleEndian.AppendUint32(nil, crc32.Checksum(was, castagnoli))) {
		t.Fatalf("base check %x is not the base's checksum", sum)
	}
	if b.AppendBaseCheck(nil) != nil {
		t.Fatal("base check not reset after the batch")
	}
	if p, _ := frame(t, b, 1, must); p != nil || !bytes.Equal(b.bases[1], cur) {
		t.Fatal("the batched delta did not re-base the page")
	}
	// After a reconnect nothing has a base, but W is remembered.
	b.Drop()
	if b.Bases() != 0 || b.Hot() != 2 {
		t.Fatalf("after Drop: %d bases, |W| = %d", b.Bases(), b.Hot())
	}
	if p, delta := frame(t, b, 1, must); delta || len(p) != PageSize || b.Bases() != 1 {
		t.Fatal("page owed after a reconnect did not go literally and get a fresh base")
	}
}

// TestBaseBookFreezeBudget: deferral stops once the pass has left the
// budget's worth of delta bytes to the freeze; later pages go now.
func TestBaseBookFreezeBudget(t *testing.T) {
	m, b := book(t, 1) // one page's worth: 4096 bytes of deltas
	all := bitmap.NewAllSet(16)
	b.SawDirty(all)
	for n := 0; n < 16; n++ {
		frame(t, b, n, bitmap.View{})
	}
	for n := 0; n < 16; n++ {
		rewrite(t, m, n, seq(0, 100)...) // an 806-byte delta each
	}
	b.SawDirty(m.SwapDirty())
	deferred, sent := 0, 0
	for n := 0; n < 16; n++ {
		switch p, delta := frame(t, b, n, m.DirtyView()); {
		case p == nil:
			deferred++
		case delta:
			sent++
		}
	}
	if deferred != 5 || sent != 11 {
		t.Fatalf("deferred %d, sent %d as deltas; want 5 and 11", deferred, sent)
	}
	if m.DirtyCount() != 5 {
		t.Fatalf("tracker owes %d pages, want the 5 deferred", m.DirtyCount())
	}
}

// applyForm applies a delta payload in the given form to page: a word-form
// payload checks its own base, a byte-form one is checked against page as a
// batch's base check would have.
func applyForm(page, payload []byte, unit int) error {
	if unit == WordUnit {
		return ApplyPageDelta(page, payload)
	}
	if err := checkDelta(page, payload, ByteUnit); err != nil {
		return err
	}
	patch(page, payload, ByteUnit)
	return nil
}

// FuzzPageDelta, in either form: the decoder never panics, never writes
// outside the page and allocates no more than a bound in the payload's size
// (nothing at all for a payload it accepts); a refused payload leaves the
// page alone; an accepted one is the canonical delta between the page before
// and after; and whatever the encoder emits for a fuzzed pair of pages
// applies back to the second.
func FuzzPageDelta(f *testing.F) {
	base := patterned(9)
	word := bytes.Repeat([]byte{0xee}, 8)
	changed := patterned(9)
	touch(changed, 0)
	touch(changed, 40)
	good, _ := AppendPageDelta(nil, base, changed, WordUnit)
	byteGood, _ := AppendPageDelta(nil, base, changed, ByteUnit)
	f.Add(good[4:], false, uint16(0), []byte{1})
	f.Add(byteGood, true, uint16(0), []byte{1})
	f.Add([]byte{3, 0}, false, uint16(1), []byte{2})                                    // zero-length literal
	f.Add(append([]byte{0, 1}, append(word, 0xff, 0x7f, 1)...), false, uint16(2), word) // skip past the page
	f.Add(append([]byte{0, 1}, append(word, 9)...), false, uint16(3), []byte{})         // trailing garbage
	f.Add(append([]byte{0xff, 0x03, 2}, append(word, word...)...), false, uint16(4), word)
	f.Add([]byte{7, 1, 0xee, 0, 1, 0xee}, true, uint16(5), word) // touching byte literals
	f.Add([]byte{0, 1, base[0]}, true, uint16(6), []byte{0x5a})  // a literal byte equal to the base
	f.Add([]byte{0x80, 0x00, 1, 0xee}, true, uint16(7), word)    // an overlong skip
	f.Fuzz(func(t *testing.T, records []byte, byteForm bool, at uint16, change []byte) {
		unit, payload := WordUnit, withCRC(base, records...)
		if byteForm {
			unit, payload = ByteUnit, records
		}
		const guard = 64
		arena := bytes.Repeat([]byte{0xc3}, guard+PageSize+guard)
		page := arena[guard : guard+PageSize]
		copy(page, base)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := applyForm(page, payload, unit)
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+8*len(records)); grew > bound {
			t.Fatalf("applying %d bytes of records allocated %d, bound %d", len(records), grew, bound)
		}
		if !bytes.Equal(arena[:guard], bytes.Repeat([]byte{0xc3}, guard)) ||
			!bytes.Equal(arena[guard+PageSize:], bytes.Repeat([]byte{0xc3}, guard)) {
			t.Fatal("decoder wrote outside the page")
		}
		if err != nil {
			if !bytes.Equal(page, base) {
				t.Fatalf("refused payload modified the page: %v", err)
			}
		} else {
			if allocs := testing.AllocsPerRun(10, func() { copy(page, base); _ = applyForm(page, payload, unit) }); allocs > 0 {
				t.Fatalf("applying an accepted payload allocated %.0f times", allocs)
			}
			again, pays := AppendPageDelta(nil, base, page, unit)
			if !pays || !bytes.Equal(again[headLen(unit):], records) {
				t.Fatalf("accepted payload %x re-encodes to %x (pays %v)", records, again, pays)
			}
		}

		cur := append([]byte(nil), base...)
		copy(cur[int(at)%PageSize:], change)
		payload, pays := AppendPageDelta(nil, base, cur, unit)
		if !pays {
			if len(change) < PageSize/4 {
				t.Fatalf("a %d-byte change did not pay", len(change))
			}
			return
		}
		if len(payload) > PageSize/2 {
			t.Fatalf("paying delta is %d bytes", len(payload))
		}
		got := append([]byte(nil), base...)
		if err := applyForm(got, payload, unit); err != nil || !bytes.Equal(got, cur) {
			t.Fatalf("apply(base, encode(base, cur)) != cur: %v", err)
		}
	})
}
