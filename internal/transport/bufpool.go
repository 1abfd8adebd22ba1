package transport

import (
	"sync"
	"sync/atomic"
)

// Pooled payload buffers: the zero-copy discipline for the migration hot
// path. Every frame payload that crosses a connection — extent assembly on
// the source, frame receive on the destination, staging copies inside the
// in-process pipe — draws from one process-wide, size-classed pool instead
// of the garbage collector, so a steady-state migration performs O(1)
// allocations per extent rather than per frame.
//
// Ownership contract (see docs/ARCHITECTURE.md, "Memory discipline"):
//
//   - Send BORROWS the payload: when Send returns, the caller owns the
//     buffer again and may immediately reuse or release it. Every transport
//     flavour copies or fully writes the payload before returning.
//   - Recv TRANSFERS ownership: the payload handed out by Recv belongs to
//     the caller, which SHOULD release it (Message.Release or PutBuf) once
//     the bytes are applied. Releasing is optional for correctness — an
//     unreleased buffer is simply garbage collected — so cold paths and
//     external consumers need no changes.
//   - Release at most once, and never use a payload after releasing it.
//     SetBufPoison turns on a debug mode that scribbles over released
//     buffers so use-after-release corrupts deterministically in tests.
//
// A size class holds a power of two plus its framing: a 64-page memory batch
// (256 KiB of pages and their entry headers), an extent with a marker byte.
// Below 32 KiB, where every power of two is one of the allocator's own size
// classes, a class is the power of two itself. Above 32 KiB the allocator
// hands out whole 8 KiB pages, so from 32 KiB up a class is the power of two
// plus one page: a framed payload costs that page anyway, and none the
// engine builds at 16 or 64 blocks or pages lands in a class twice its
// length. Classes run from 64 bytes to 16 MiB plus a page; larger requests
// (up to MaxPayload) fall through to plain make and are never pooled. PutBuf
// only accepts buffers whose capacity matches a class exactly — anything
// else (sub-slices, foreign buffers) is silently dropped to the GC, which
// keeps a stray reslice from poisoning the class invariant.

const (
	minBufClass  = 6  // 64 B: want bitmasks, barriers' neighbours, acks
	pageBufClass = 15 // 32 KiB: the first class with a page of headroom
	maxBufClass  = 24 // 16 MiB: far above any default extent
	numBufClass  = maxBufClass - minBufClass + 1
)

// bufBox carries a pooled buffer through sync.Pool. Boxes themselves
// recycle through boxPool so a steady-state Get/Put cycle allocates
// nothing (storing a plain []byte in a sync.Pool would heap-allocate the
// slice header on every Put).
type bufBox struct{ b []byte }

var (
	bufPools [numBufClass]sync.Pool
	boxPool  = sync.Pool{New: func() any { return new(bufBox) }}

	bufPoison atomic.Bool
)

// bufCap returns the capacity of the buffers of pool index idx.
func bufCap(idx int) int {
	c := idx + minBufClass
	if c < pageBufClass {
		return 1 << c
	}
	return 1<<c + 8<<10
}

// bufClass returns the pool index whose buffers hold at least n bytes, or
// -1 when n is zero or above the largest class.
func bufClass(n int) int {
	if n <= 0 || n > bufCap(numBufClass-1) {
		return -1
	}
	idx := 0
	for bufCap(idx) < n {
		idx++
	}
	return idx
}

// PoolStats counts the pool's work since the process started: every GetBuf
// of a non-empty buffer, those the pool could not serve, the bytes they asked
// for and the capacity they were handed. Handed over Asked is the memory a
// payload costs over its length. Coders counts the flate coders built.
type PoolStats struct{ Gets, Fresh, Asked, Handed, Coders int64 }

var bufStats struct{ gets, fresh, asked, handed, coders atomic.Int64 }

// BufPoolStats returns the pool's counters.
func BufPoolStats() PoolStats {
	return PoolStats{bufStats.gets.Load(), bufStats.fresh.Load(), bufStats.asked.Load(), bufStats.handed.Load(), bufStats.coders.Load()}
}

// GetBuf returns a buffer of length n, drawn from the pool when a size
// class covers n and freshly allocated otherwise. The buffer's contents
// are unspecified — callers overwrite it before use.
func GetBuf(n int) []byte {
	if n <= 0 {
		return nil
	}
	idx, size := bufClass(n), n
	if idx >= 0 {
		size = bufCap(idx)
	}
	bufStats.gets.Add(1)
	bufStats.asked.Add(int64(n))
	bufStats.handed.Add(int64(size))
	if idx >= 0 {
		if v := bufPools[idx].Get(); v != nil {
			box := v.(*bufBox)
			b := box.b
			box.b = nil
			boxPool.Put(box)
			return b[:n]
		}
	}
	bufStats.fresh.Add(1)
	return make([]byte, n, size)
}

// PutBuf returns a buffer obtained from GetBuf (or from a Recv payload) to
// the pool. Buffers whose capacity does not exactly match a size class are
// dropped to the garbage collector, so passing an arbitrary slice is safe
// but pointless. Callers must not touch the buffer afterwards.
func PutBuf(b []byte) {
	c := cap(b)
	idx := bufClass(c)
	if idx < 0 || bufCap(idx) != c {
		return
	}
	b = b[:c]
	if bufPoison.Load() {
		for i := copy(b, []byte{0xDB}); i < len(b); i *= 2 { // doubling copies: memmove speed
			copy(b[i:], b[:i])
		}
	}
	box := boxPool.Get().(*bufBox)
	box.b = b
	bufPools[idx].Put(box)
}

// Release returns m's payload to the buffer pool and clears the reference.
// It is the applier-side half of the ownership contract: call it once the
// payload bytes have been fully consumed (written to the device, parsed
// into an owned structure). Safe on messages with nil payloads.
func (m *Message) Release() {
	if m.Payload != nil {
		PutBuf(m.Payload)
		m.Payload = nil
	}
}

// SetBufPoison toggles the pool's use-after-release debug mode: while on,
// every released buffer is overwritten with a poison byte before it is
// recycled, so a retained reference shows up as corrupted data instead of
// a heisenbug. Tests flip this on around full migrations to prove the
// release discipline sound; it is never on in production paths.
func SetBufPoison(on bool) { bufPoison.Store(on) }
