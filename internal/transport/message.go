// Package transport implements the migration wire protocol: framed messages
// carrying disk blocks, memory pages, bitmaps, CPU state, pull requests, and
// phase-control signals between the source and destination migration
// daemons (the paper's blkd processes plus the xc_linux_save/restore control
// channel, collapsed into one framed stream per direction).
//
// Connection flavours provided: a raw framed stream over any
// io.ReadWriteCloser (TCP in production), an in-process Pipe for tests, a
// Striped bundle fanning data frames across several connections (control
// frames pinned to stream 0 behind broadcast barriers), and decorators for
// byte metering, token-bucket bandwidth shaping, DEFLATE compression, fault
// injection, and per-frame link-latency modelling.
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
)

// MsgType identifies the kind of a protocol message.
type MsgType uint8

// Protocol message types. The numbering is part of the wire format.
const (
	// MsgHello opens a migration: Arg carries the protocol version and the
	// payload a serialized Geometry.
	MsgHello MsgType = iota + 1
	// MsgHelloAck accepts a migration.
	MsgHelloAck
	// MsgIterStart announces a disk pre-copy iteration; Arg is the
	// iteration number (1-based).
	MsgIterStart
	// MsgBlockData carries one disk block; Arg is the block number.
	MsgBlockData
	// MsgIterEnd closes a pre-copy iteration; Arg is the count of blocks sent.
	MsgIterEnd
	// MsgMemPage carries one memory page; Arg is the page number.
	MsgMemPage
	// MsgMemIterStart announces a memory pre-copy iteration; Arg is the
	// iteration number.
	MsgMemIterStart
	// MsgMemIterEnd closes a memory pre-copy iteration.
	MsgMemIterEnd
	// MsgSuspend announces the freeze-and-copy phase: the VM is paused on
	// the source.
	MsgSuspend
	// MsgCPUState carries the opaque CPU register state.
	MsgCPUState
	// MsgBitmap carries the serialized block-bitmap of unsynchronized
	// blocks (freeze-and-copy phase, §IV-A-3).
	MsgBitmap
	// MsgResume tells the destination to resume the VM (post-copy begins).
	MsgResume
	// MsgPullRequest asks the source for a dirty block the destination VM
	// wants to read; Arg is the block number.
	MsgPullRequest
	// MsgPushDone tells the destination the source has pushed every block
	// marked in its bitmap.
	MsgPushDone
	// MsgDone acknowledges full synchronization; the source may shut down
	// (the paper's finite-dependency requirement).
	MsgDone
	// MsgError aborts the migration; the payload is a human-readable cause.
	MsgError
	// MsgResumed notifies the source that the destination VM is running
	// again; the source uses it to bound the measured downtime.
	MsgResumed
	// MsgDelta carries a forwarded write (block number + payload) for the
	// Bradford et al. forward-and-replay baseline; Arg is the block number.
	MsgDelta
	// MsgAnnounce precedes the engine handshake when host daemons talk: the
	// payload names the migrating domain and carries its geometry and vault
	// so the receiver can provision a VBD and VM shell (hostd package).
	MsgAnnounce
	// MsgExtent carries a run of contiguous disk blocks in one frame: Arg
	// packs the start block and block count (ExtentArg/ExtentSplit) and the
	// payload is the concatenated block data. Coalescing extents amortizes
	// the per-frame header and flush cost that makes per-block transfer
	// latency-bound.
	MsgExtent
	// MsgStripeBarrier is a Striped-transport ordering fence: before a
	// control frame crosses a multi-stream connection, one barrier frame is
	// broadcast on every stream. The receiver holds each stream at its
	// barrier until all streams reach it and the control frame has been
	// delivered, so phase boundaries (ITER_END, SUSPEND, RESUME, ...) stay
	// ordered against data frames striped across other streams. Arg is a
	// sanity-check sequence number. Never seen by the engine.
	MsgStripeBarrier
	// MsgStripeHello labels every TCP connection of a striped bundle, one
	// wide or more: Arg is the stream index and the payload one byte holding
	// the bundle's width. Exchanged raw, before any framing decorators, by
	// DialStriped/AcceptStriped. Never seen by the engine.
	MsgStripeHello
	// MsgSessionResume is the first frame of a reconnecting source: Arg is
	// the new session epoch (monotonically increasing per reconnect) and the
	// payload the 16-byte session token negotiated in the original
	// handshake. Sent raw on the fresh connection, before any decorators,
	// so the accepting layer can route it to the interrupted migration.
	MsgSessionResume
	// MsgSessionAck accepts a session resume: Arg echoes the epoch and the
	// payload carries the destination's progress state (which phase it
	// reached, which iterations it has fully received), so both sides agree
	// on exactly which blocks are still owed.
	MsgSessionAck
	// MsgHashAdvert offers a run of blocks by content instead of bytes
	// (negotiated content-addressed dedup): Arg packs the extent like
	// MsgExtent and the payload carries one 16-byte fingerprint per block.
	// The destination writes every block whose content it can already
	// produce, then answers with MsgHashWant naming the rest.
	MsgHashAdvert
	// MsgHashWant answers a MsgHashAdvert: Arg echoes the advert's packed
	// extent and the payload is a layout byte, then a bitmask (one bit per
	// advertised block, LSB-first) with set bits meaning "send the literal".
	// A clear bit is a block the destination already wrote at the advert.
	MsgHashWant
	// MsgBlockRef is reserved: it carried fingerprint references for the
	// blocks a want reply left clear, before the destination wrote them at
	// the advert. No end sends it, and a destination refuses it.
	MsgBlockRef
	// MsgSwarmHello opens a sidecar swarm-fetch session with a peer host
	// daemon: Arg carries the block size the fingerprints describe and the
	// payload names the migrating domain. The peer echoes the hello to
	// accept (Arg restating the block size) or answers MsgError to refuse.
	// Swarm frames never appear on the migration channel itself; they ride
	// separate destination-to-peer connections (WIRE.md §11).
	MsgSwarmHello
	// MsgSwarmFetch asks a swarm peer to produce block content by
	// fingerprint: Arg is a request sequence number and the payload carries
	// one 16-byte fingerprint per wanted block.
	MsgSwarmFetch
	// MsgSwarmBlock answers a MsgSwarmFetch: Arg echoes the request
	// sequence number and the payload is a hit-bitmask (one bit per
	// requested fingerprint, LSB-first, set meaning "produced") followed by
	// the concatenated content of the produced blocks in fingerprint order.
	// The peer serves only content its index verifies on read, so a stale
	// or corrupt copy degrades to a miss, never to wrong bytes.
	MsgSwarmBlock
	// MsgDeltaSig drives the delta-encoding round trip (negotiated WAN
	// delta transfer, WIRE.md §12). Source → destination with an empty
	// payload it requests the signature of the destination's current
	// content for the extent packed in Arg; destination → source it answers
	// with the marshaled chunk signature. Arg 0 — unreachable for a real
	// extent — is the end-of-pass fence: the destination echoes it after
	// every earlier patch has been applied or refused, bounding the window
	// in which a MsgDeltaPatch refusal can arrive.
	MsgDeltaSig
	// MsgDeltaPatch carries delta-encoded extent content. Source →
	// destination the payload is a COPY/LITERAL op stream (internal/delta
	// patch format) the destination applies against its current content,
	// verifying the patch's SHA-256 trailer before any byte lands;
	// destination → source an empty payload echoing the extent Arg refuses
	// a patch whose verification failed, and the source re-sends that
	// extent literally before ending the pass — degraded, never wrong.
	MsgDeltaPatch
	// MsgMemPageDelta carries one memory page as the 8-byte words that differ
	// from the bytes the source last sent for it (WIRE.md §13), at one page
	// per frame only: Arg is the page number and the payload the CRC-32C of
	// that base followed by canonical (skip, literal) word records. Never
	// emitted for a page the source has not seen dirty; the destination
	// checks the CRC against its own copy before touching the page and fails
	// the migration on a mismatch.
	MsgMemPageDelta
	// MsgZeroExtent materializes a run of all-zero disk blocks: Arg packs the
	// extent like MsgExtent and the payload is empty (WIRE.md §14). A data
	// frame: the destination writes zeros over every block of the run.
	MsgZeroExtent
	// MsgMemPages carries memory pages, literal pages and byte-form deltas
	// mixed, in strictly ascending page order (WIRE.md §15): Arg packs the
	// first page and the entry count like MsgExtent; the payload is one (gap,
	// length, body) entry per page, then, when a body is a delta, the CRC-32C
	// of the deltas' bases (ParseMemPages). A data frame: every memory frame
	// when MaxExtentBlocks exceeds one.
	MsgMemPages
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	names := map[MsgType]string{
		MsgHello: "HELLO", MsgHelloAck: "HELLO_ACK",
		MsgIterStart: "ITER_START", MsgBlockData: "BLOCK_DATA", MsgIterEnd: "ITER_END",
		MsgMemPage: "MEM_PAGE", MsgMemIterStart: "MEM_ITER_START", MsgMemIterEnd: "MEM_ITER_END",
		MsgSuspend: "SUSPEND", MsgCPUState: "CPU_STATE", MsgBitmap: "BITMAP",
		MsgResume: "RESUME", MsgPullRequest: "PULL_REQUEST", MsgPushDone: "PUSH_DONE",
		MsgDone: "DONE", MsgError: "ERROR",
		MsgResumed: "RESUMED", MsgDelta: "DELTA", MsgAnnounce: "ANNOUNCE",
		MsgExtent: "EXTENT", MsgStripeBarrier: "STRIPE_BARRIER", MsgStripeHello: "STRIPE_HELLO",
		MsgSessionResume: "SESSION_RESUME", MsgSessionAck: "SESSION_ACK",
		MsgHashAdvert: "HASH_ADVERT", MsgHashWant: "HASH_WANT", MsgBlockRef: "BLOCK_REF",
		MsgSwarmHello: "SWARM_HELLO", MsgSwarmFetch: "SWARM_FETCH", MsgSwarmBlock: "SWARM_BLOCK",
		MsgDeltaSig: "DELTA_SIG", MsgDeltaPatch: "DELTA_PATCH", MsgMemPageDelta: "MEM_PAGE_DELTA",
		MsgZeroExtent: "ZERO_EXTENT", MsgMemPages: "MEM_PAGES",
	}
	if s, ok := names[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Message is one protocol frame. Arg is a type-dependent scalar (block
// number, page number, iteration index, version); Payload is the
// type-dependent body.
type Message struct {
	Type    MsgType
	Arg     uint64
	Payload []byte
}

// frame layout: type(1) | arg(8) | payloadLen(4) | payload.
const headerLen = 1 + 8 + 4

// MaxPayload bounds a frame payload; larger frames indicate corruption.
const MaxPayload = 64 << 20

// FrameSize returns the number of wire bytes the message occupies, the unit
// the "amount of migrated data" metric counts.
func (m Message) FrameSize() int { return headerLen + len(m.Payload) }

// readMessageHdr decodes one frame from r. The payload is drawn from the
// buffer pool and ownership transfers to the caller (see bufpool.go);
// zero-length payloads allocate nothing at all. hdr is caller-owned header
// scratch: the array would otherwise escape through the io.Reader interface
// and cost one heap allocation per frame — exactly the per-frame overhead
// the pooled path exists to eliminate.
func readMessageHdr(r io.Reader, hdr *[headerLen]byte) (Message, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	m := Message{
		Type: MsgType(hdr[0]),
		Arg:  binary.LittleEndian.Uint64(hdr[1:]),
	}
	n := binary.LittleEndian.Uint32(hdr[9:])
	if n > MaxPayload {
		return Message{}, fmt.Errorf("transport: frame payload %d exceeds max %d", n, MaxPayload)
	}
	if n > 0 {
		m.Payload = GetBuf(int(n))
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			PutBuf(m.Payload)
			return Message{}, fmt.Errorf("transport: short payload: %w", err)
		}
	}
	return m, nil
}

// Geometry is exchanged in MsgHello so both sides agree on the disk and
// memory shape before any data moves.
type Geometry struct {
	BlockSize int
	NumBlocks int
	PageSize  int
	NumPages  int
}

// Validate checks the geometry for internal consistency.
func (g Geometry) Validate() error {
	if g.BlockSize <= 0 || g.NumBlocks < 0 || g.PageSize <= 0 || g.NumPages < 0 {
		return fmt.Errorf("transport: invalid geometry %+v", g)
	}
	return nil
}

// MarshalBinary encodes the geometry for the hello payload.
func (g Geometry) MarshalBinary() ([]byte, error) {
	out := make([]byte, 32)
	binary.LittleEndian.PutUint64(out[0:], uint64(g.BlockSize))
	binary.LittleEndian.PutUint64(out[8:], uint64(g.NumBlocks))
	binary.LittleEndian.PutUint64(out[16:], uint64(g.PageSize))
	binary.LittleEndian.PutUint64(out[24:], uint64(g.NumPages))
	return out, nil
}

// UnmarshalBinary decodes a geometry.
func (g *Geometry) UnmarshalBinary(data []byte) error {
	if len(data) != 32 {
		return fmt.Errorf("transport: geometry payload %d bytes, want 32", len(data))
	}
	g.BlockSize = int(binary.LittleEndian.Uint64(data[0:]))
	g.NumBlocks = int(binary.LittleEndian.Uint64(data[8:]))
	g.PageSize = int(binary.LittleEndian.Uint64(data[16:]))
	g.NumPages = int(binary.LittleEndian.Uint64(data[24:]))
	return g.Validate()
}

// ProtocolVersion is carried in MsgHello.Arg; mismatches abort the migration.
const ProtocolVersion = 1

// HelloAckResume is set in MsgHelloAck.Arg when the destination accepts the
// session token a resumable source appended to its HELLO payload. A zero Arg
// (the seed wire format) declines: the session runs fail-fast.
const HelloAckResume uint64 = 1 << 0

// MaxExtentBlocks bounds the block count of one MsgExtent frame: 2^24-1
// blocks (64 GiB of 4 KiB blocks), far above anything MaxPayload admits, so
// the packing never constrains a legal frame.
const MaxExtentBlocks = 1<<24 - 1

// ExtentArg packs a start block and block count into a MsgExtent Arg: the
// start in the low 40 bits, the count in the next 24.
func ExtentArg(start, count int) uint64 {
	if start < 0 || uint64(start) >= 1<<40 || count < 1 || count > MaxExtentBlocks {
		panic(fmt.Sprintf("transport: extent [%d,+%d) unpackable", start, count))
	}
	return uint64(start) | uint64(count)<<40
}

// ExtentSplit unpacks a MsgExtent Arg into start block and block count.
func ExtentSplit(arg uint64) (start, count int) {
	return int(arg & (1<<40 - 1)), int(arg >> 40)
}

// CarriedUnits returns the first block or page whose content m moves source
// to destination in any form — literal, zero run, patch or page batch — and
// how many units it carries, or a zero count for every other
// frame. The units need not be contiguous: a MsgMemPages frame's pages may
// skip (ParseMemPages lists them). Observers that pace or audit a transfer by
// units rather than bytes read frames through it.
func CarriedUnits(m Message) (start, count int) {
	switch m.Type {
	case MsgBlockData, MsgMemPage, MsgMemPageDelta:
		return int(m.Arg), 1
	case MsgExtent, MsgZeroExtent, MsgMemPages:
		return ExtentSplit(m.Arg)
	case MsgDeltaPatch:
		if len(m.Payload) > 0 { // an empty one is the destination's refusal
			return ExtentSplit(m.Arg)
		}
	}
	return 0, 0
}
