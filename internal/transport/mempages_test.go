package transport

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzMemPages throws arbitrary MsgMemPages headers and payloads at the one
// parser of page batches, against a small memory: whatever arrives it never
// panics, allocates in proportion to the payload — never to the count Arg
// claims — and an accepted frame names strictly ascending pages inside memory
// and re-encodes, entry by entry and then the base check exactly when an
// entry is a delta, to exactly the frame it came from.
func FuzzMemPages(f *testing.F) {
	const pages, pageSize = 64, 64
	page := bytes.Repeat([]byte{7}, pageSize)
	delta := []byte{0, 2, 8, 7, 5, 1, 9} // two byte-form records
	check := []byte{0xde, 0xad, 0xbe, 0xef}
	parent := AppendMemPage(AppendMemPage(nil, 0, page), 3, delta)
	two := append(parent[:len(parent):len(parent)], check...)
	wrap := binary.AppendUvarint(AppendMemPage(nil, 0, page), ^uint64(0)) // back onto the same page
	wrap = append(binary.AppendUvarint(wrap, pageSize), page...)
	f.Add(ExtentArg(5, 2), two)                                                         // a literal, then a delta four pages on
	f.Add(ExtentArg(5, 3), two)                                                         // one entry fewer than Arg says
	f.Add(ExtentArg(5, 1), two)                                                         // trailing bytes
	f.Add(ExtentArg(5, 2), parent)                                                      // a delta without the base check
	f.Add(ExtentArg(0, 1), append(AppendMemPage(nil, 0, page), check...))               // a base check without a delta
	f.Add(ExtentArg(62, 2), two)                                                        // the second page past the end
	f.Add(ExtentArg(1, 2), wrap)                                                        // a gap that wraps
	f.Add(ExtentArg(0, 1), append(AppendMemPage(nil, 0, delta[:2]), check...))          // a body too short for a delta
	f.Add(ExtentArg(0, 1), append([]byte{0x80, 0}, AppendMemPage(nil, 0, page)[1:]...)) // a padded gap
	f.Add(uint64(MaxExtentBlocks)<<40, two)                                             // a count the payload cannot hold
	f.Fuzz(func(t *testing.T, arg uint64, payload []byte) {
		m := Message{Type: MsgMemPages, Arg: arg, Payload: payload}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		entries, sum, err := ParseMemPages(m, pages, pageSize)
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+8*len(payload)); grew > bound {
			t.Fatalf("parsing %d bytes allocated %d, bound %d", len(payload), grew, bound)
		}
		if err != nil {
			return
		}
		var again []byte
		deltas := false
		for i, e := range entries {
			gap := 0
			if i > 0 {
				if e.Page <= entries[i-1].Page {
					t.Fatalf("entry %d names page %d after page %d", i, e.Page, entries[i-1].Page)
				}
				gap = e.Page - entries[i-1].Page - 1
			}
			if e.Page < 0 || e.Page >= pages {
				t.Fatalf("entry %d names page %d of a %d-page memory", i, e.Page, pages)
			}
			again = AppendMemPage(again, gap, e.Body)
			deltas = deltas || len(e.Body) != pageSize
		}
		if deltas {
			again = binary.LittleEndian.AppendUint32(again, sum)
		} else if sum != 0 {
			t.Fatalf("a batch of literals returned base check %#x", sum)
		}
		if ExtentArg(entries[0].Page, len(entries)) != arg || !bytes.Equal(again, payload) {
			t.Fatalf("accepted frame does not re-encode to itself: arg %#x, %d entries", arg, len(entries))
		}
	})
}
