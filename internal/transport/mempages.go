package transport

import (
	"encoding/binary"
	"fmt"

	"bbmig/internal/bitmap"
)

// MemPage is one entry of a MsgMemPages frame: a page number and its body,
// the literal page when the body is a whole page long and a byte-form page
// delta (WIRE.md §15) otherwise.
type MemPage struct {
	Page int
	Body []byte
}

// minMemPageEntry is the shortest entry: a one-byte gap, a one-byte length
// and the shortest page delta, one one-byte record.
const minMemPageEntry = 1 + 1 + 3

// AppendMemPage appends one MsgMemPages entry to dst: gap, the pages skipped
// since the previous entry (0 for the first), then the body's length and the
// body.
func AppendMemPage(dst []byte, gap int, body []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(gap))
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// ParseMemPages validates a MsgMemPages frame against a memory of numPages
// pages of pageSize bytes and returns its entries, which alias the payload,
// and its base check. Only the canonical form is accepted: exactly the entry
// count Arg names, the first at Arg's first page, the rest strictly
// ascending, every page inside memory, minimal uvarints, every body a whole
// page or 3 to pageSize/2 bytes of page delta, and after the last entry the
// 4-byte base check when a body is a delta and nothing otherwise. What it
// allocates is bounded by the payload, never by the count Arg claims.
func ParseMemPages(m Message, numPages, pageSize int) ([]MemPage, uint32, error) {
	first, count := ExtentSplit(m.Arg)
	if count < 1 || count > len(m.Payload)/minMemPageEntry {
		return nil, 0, fmt.Errorf("transport: %d page entries in a %d-byte MEM_PAGES payload", count, len(m.Payload))
	}
	entries := make([]MemPage, 0, count)
	// the lowest page the next entry may name, and the base check's size
	next, rest, check := uint64(first), m.Payload, 0
	for i := 0; i < count; i++ {
		gap, r, ok1 := bitmap.MinimalUvarint(rest)
		size, r, ok2 := bitmap.MinimalUvarint(r)
		if !ok1 || !ok2 {
			return nil, 0, fmt.Errorf("transport: MEM_PAGES entry %d: truncated or non-minimal header", i)
		}
		if i == 0 && gap != 0 {
			return nil, 0, fmt.Errorf("transport: MEM_PAGES first entry skips %d pages", gap)
		}
		if next >= uint64(numPages) || gap >= uint64(numPages)-next {
			return nil, 0, fmt.Errorf("transport: MEM_PAGES entry %d past the %d-page memory", i, numPages)
		}
		page := int(next + gap)
		if size != uint64(pageSize) && (size < 3 || size > uint64(pageSize/2)) || size > uint64(len(r)) {
			return nil, 0, fmt.Errorf("transport: MEM_PAGES page %d: %d-byte body", page, size)
		}
		if size != uint64(pageSize) {
			check = 4
		}
		entries = append(entries, MemPage{Page: page, Body: r[:size]})
		next, rest = uint64(page)+1, r[size:]
	}
	if len(rest) != check {
		return nil, 0, fmt.Errorf("transport: %d bytes after the last of %d MEM_PAGES entries, want %d (a base check follows deltas)", len(rest), count, check)
	}
	if check == 0 {
		return entries, 0, nil
	}
	return entries, binary.LittleEndian.Uint32(rest), nil
}
