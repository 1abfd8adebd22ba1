package core

import (
	"fmt"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/transport"
)

// This file is the disk-only scheme: the paper's IM (§V), "ship only the
// divergence bitmap", run ahead of cutover as a pre-sync. It is the shortest
// pipeline over the transfer substrate — no handshake, no VM, no iteration:
// one paced send pass over the owed set through the same encoder chain disk
// pre-copy uses, bounded by a MsgDone carrying the block count, which the
// destination checks against what landed and echoes. The connection-owning
// layer (hostd) announces the session and decides what is owed; the wire
// format is docs/WIRE.md §6 "Pre-sync session".

// phasePreSync names the pre-sync session in its report and events.
const phasePreSync = "pre-sync"

// SyncStats summarizes one endpoint's side of a pre-sync session.
type SyncStats struct {
	// Blocks is how many blocks were shipped (source) or landed
	// (destination), in any form.
	Blocks int
	// DedupBlocks counts the blocks among them that the destination wrote
	// at their advert (Config.Dedup) or that travelled inside header-only
	// zero runs (Config.Dedup, Delta or MaxExtentBlocks > 1) instead of
	// literals.
	DedupBlocks int
	// WireBytes is the total bytes this endpoint sent, frame headers included.
	WireBytes int64
	// Duration is the session's elapsed time.
	Duration time.Duration
}

func (t *transfer) syncStats(blocks, dedupBlocks int) SyncStats {
	return SyncStats{
		Blocks: blocks, DedupBlocks: dedupBlocks,
		WireBytes: t.meter.BytesSent(), Duration: time.Since(t.start),
	}
}

// SyncSource ships the blocks of dev that owed names to the SyncDest at the
// other end of conn, and returns once the destination has acknowledged
// holding all of them. dev is read as given — pass a snapshot for a
// consistent image of a live disk. owed is not modified.
//
// Honoured cfg fields: BandwidthLimit and Budget (pacing, re-read per
// frame), MaxExtentBlocks, Readahead, and Dedup.
// A pre-sync has no HELLO, so it is never compressed.
func SyncSource(cfg Config, dev blockdev.Device, conn transport.Conn, owed *bitmap.Bitmap) (SyncStats, error) {
	cfg = cfg.withDefaults()
	t := newDiskTransfer(cfg, dev, conn, phasePreSync, "source")
	t.awaitReply = t.recvReply
	sent, _, err := t.sendBlocks(allOf(owed), true)
	if err == nil {
		err = t.send(transport.Message{Type: transport.MsgDone, Arg: uint64(sent)}, false)
	}
	if err == nil {
		// The ack is authoritative: bytes in a dead socket's buffer are not
		// a sync.
		_, err = t.recvReply(transport.MsgDone, uint64(sent))
	}
	return t.syncStats(sent, int(t.dedupBlocks.Load())), err
}

// recvReply is awaitReply for a scheme with no concurrent reader: the
// destination answers in arrival order, so the reply to the oldest request,
// the one waited on, is the next frame. Nothing to flush (see window).
func (t *transfer) recvReply(typ transport.MsgType, arg uint64) ([]byte, error) {
	m, err := t.conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("core: awaiting %v: %w", typ, err)
	}
	t.noteWire()
	if m.Type == transport.MsgError {
		return nil, fmt.Errorf("core: destination error: %s", m.Payload)
	}
	if m.Type != typ || m.Arg != arg {
		return nil, fmt.Errorf("core: awaiting %v for %d, got %v for %d", typ, arg, m.Type, m.Arg)
	}
	return m.Payload, nil
}

// SyncDest applies one pre-sync session from conn to dev through the same
// disk-frame appliers pre-copy receive uses, and acknowledges it once the
// source's block count matches what landed. Honoured cfg fields:
// Workers, and DedupIndex/DedupName for the dedup frames a source may send.
func SyncDest(cfg Config, dev blockdev.Device, conn transport.Conn) (SyncStats, error) {
	cfg = cfg.withDefaults()
	t := newDiskTransfer(cfg, dev, conn, phasePreSync, "dest")
	d := &destRun{transfer: t, lanes: newLanePool(cfg.Workers, 0)}
	defer d.lanes.close()
	defer func() { d.dd.close() }()
	handlers := d.diskHandlers()
	handlers[transport.MsgDone] = d.drainOn(func(m transport.Message) error {
		if int(m.Arg) != d.recvBlocks {
			return fmt.Errorf("core: pre-sync count %d, received %d", m.Arg, d.recvBlocks)
		}
		return d.destSend(transport.Message{Type: transport.MsgDone, Arg: m.Arg})
	})
	err := d.recvLoop(transport.MsgDone, handlers)
	return t.syncStats(d.recvBlocks, d.refBlocks), err
}
