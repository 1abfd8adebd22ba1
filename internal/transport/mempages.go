package transport

import (
	"encoding/binary"
	"fmt"
)

// MemPage is one entry of a MsgMemPages frame: a page number and its body,
// the literal page when the body is a whole page long and a page delta
// (WIRE.md §13) otherwise.
type MemPage struct {
	Page int
	Body []byte
}

// minMemPageEntry is the shortest entry: a one-byte gap, a one-byte length
// and the shortest page delta (a base checksum and one one-word record).
const minMemPageEntry = 1 + 1 + 5

// AppendMemPage appends one MsgMemPages entry to dst: gap, the pages skipped
// since the previous entry (0 for the first), then the body's length and the
// body.
func AppendMemPage(dst []byte, gap int, body []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(gap))
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// minimalUvarint decodes the uvarint at the head of b when it is spelled in
// its fewest bytes.
func minimalUvarint(b []byte) (v uint64, rest []byte, ok bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, nil, false
	}
	return v, b[n:], true
}

// ParseMemPages validates a MsgMemPages frame against a memory of numPages
// pages of pageSize bytes and returns its entries, which alias the payload.
// Only the canonical form is accepted: exactly the entry count Arg names,
// the first at Arg's first page, the rest strictly ascending, every page
// inside memory, minimal uvarints, every body a whole page or 5 to
// pageSize/2 bytes of page delta, and nothing after the last entry. What it
// allocates is bounded by the payload, never by the count Arg claims.
func ParseMemPages(m Message, numPages, pageSize int) ([]MemPage, error) {
	first, count := ExtentSplit(m.Arg)
	if count < 1 || count > len(m.Payload)/minMemPageEntry {
		return nil, fmt.Errorf("transport: %d page entries in a %d-byte MEM_PAGES payload", count, len(m.Payload))
	}
	entries := make([]MemPage, 0, count)
	next, rest := uint64(first), m.Payload // the lowest page the next entry may name
	for i := 0; i < count; i++ {
		gap, r, ok1 := minimalUvarint(rest)
		size, r, ok2 := minimalUvarint(r)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("transport: MEM_PAGES entry %d: truncated or non-minimal header", i)
		}
		if i == 0 && gap != 0 {
			return nil, fmt.Errorf("transport: MEM_PAGES first entry skips %d pages", gap)
		}
		if next >= uint64(numPages) || gap >= uint64(numPages)-next {
			return nil, fmt.Errorf("transport: MEM_PAGES entry %d past the %d-page memory", i, numPages)
		}
		page := int(next + gap)
		if size != uint64(pageSize) && (size < 5 || size > uint64(pageSize/2)) || size > uint64(len(r)) {
			return nil, fmt.Errorf("transport: MEM_PAGES page %d: %d-byte body", page, size)
		}
		entries = append(entries, MemPage{Page: page, Body: r[:size]})
		next, rest = uint64(page)+1, r[size:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("transport: %d bytes after the last of %d MEM_PAGES entries", len(rest), count)
	}
	return entries, nil
}
