package core

import (
	"fmt"

	"bbmig/internal/bitmap"
	"bbmig/internal/delta"
	"bbmig/internal/transport"
)

// This file is the engine half of delta-encoded transfer (Config.Delta),
// the WAN path for content that diverged but stayed similar — the 11-35%
// hot-block rewrites exact-match dedup cannot exploit. The protocol per
// extent is a strictly alternating round trip: the source requests the
// signature of the destination's current content (MsgDeltaSig, empty
// payload), the destination answers with the marshaled chunk signature,
// and the source ships either a COPY/LITERAL patch (MsgDeltaPatch) or the
// plain literal, whichever is smaller. The destination verifies every
// patch's embedded strong hash before a single byte lands; a mismatch is
// refused back (MsgDeltaPatch, empty payload) and the source re-sends that
// extent literally before the pass's fence — degraded, never wrong. With
// Dedup also negotiated, delta replaces the literal sends for the blocks
// the want-bitmap asked for, composing the two. Memory pages,
// freeze-and-copy, and post-copy pushes are never delta-encoded.

// deltaFenceArg is the MsgDeltaSig Arg bounding one delta send pass.
// ExtentArg never produces 0 (a packed extent has count >= 1), so the value
// can never collide with a real signature request.
const deltaFenceArg = 0

// sendExtentsDelta runs the sequential walker with the delta encoder: each
// extent moves through the signature round trip, and the pass ends with the
// fence. Sequential by design — each extent is a round trip, so a worker
// pool would just reorder waits.
func (t *transfer) sendExtentsDelta(cur *owedCursor, phaseName string, limited bool) (int, int64, error) {
	sent, bytes, err := t.sendExtentsSeq(cur, phaseName, func(ext bitmap.Extent, data []byte) (int64, error) {
		return t.sendDeltaExtent(ext, data, phaseName, limited)
	})
	if err != nil {
		return sent, bytes, err
	}
	fenceWire, err := t.deltaFence(limited)
	return sent, bytes + fenceWire, err
}

// sendDeltaExtent moves one extent under the delta protocol and returns the
// wire bytes it sent. The literal fallbacks — policy verdict false, or a
// patch no smaller than the content — produce frames any delta-negotiated
// destination accepts, so the round trip gates cost, never correctness.
func (t *transfer) sendDeltaExtent(ext bitmap.Extent, data []byte, phaseName string, limited bool) (int64, error) {
	if !t.pol.DeltaExtent(phaseName, ext.Count) {
		return t.sendLiteral(ext, data, limited)
	}
	arg := transport.ExtentArg(ext.Start, ext.Count)
	req := transport.Message{Type: transport.MsgDeltaSig, Arg: arg}
	if err := t.send(req, limited); err != nil {
		return 0, err
	}
	wire := int64(req.FrameSize())
	sigRaw, err := t.awaitDeltaSig(arg)
	if err != nil {
		return wire, err
	}
	sig, perr := delta.ParseSignature(sigRaw)
	transport.PutBuf(sigRaw)
	if perr != nil {
		return wire, fmt.Errorf("core: delta signature for extent [%d,+%d): %w", ext.Start, ext.Count, perr)
	}
	patch := delta.Diff(sig, data)
	if len(patch) >= len(data) {
		// Diverged wholesale: the literal is no bigger and needs no apply.
		lit, err := t.sendLiteral(ext, data, limited)
		return wire + lit, err
	}
	m := transport.Message{Type: transport.MsgDeltaPatch, Arg: arg, Payload: patch}
	if err := t.send(m, limited); err != nil {
		return wire, err
	}
	t.deltaBlocks += ext.Count
	t.deltaPending++
	return wire + int64(m.FrameSize()), nil
}

// deltaFence bounds one delta send pass. The source sends the Arg-0
// signature request and waits for the destination's echo; both directions
// are FIFO, so by the time the echo arrives every patch of the pass has
// been applied or refused and every refusal has been routed to the NAK
// list. Refused extents are then re-sent literally — within the same pass,
// so iteration accounting on both sides stays exact. Passes that shipped no
// patch skip the round trip entirely.
func (t *transfer) deltaFence(limited bool) (int64, error) {
	if t.deltaPending == 0 {
		return 0, nil
	}
	t.deltaPending = 0
	req := transport.Message{Type: transport.MsgDeltaSig, Arg: deltaFenceArg}
	if err := t.send(req, limited); err != nil {
		return 0, err
	}
	wire := int64(req.FrameSize())
	echo, err := t.awaitDeltaSig(deltaFenceArg)
	if err != nil {
		return wire, err
	}
	transport.PutBuf(echo)
	naks := t.takeDeltaNaks()
	if len(naks) == 0 {
		return wire, nil
	}
	dev := t.srcDev
	bs := dev.BlockSize()
	var buf []byte
	defer func() { transport.PutBuf(buf) }()
	for _, arg := range naks {
		start, count := transport.ExtentSplit(arg)
		if count < 1 || start < 0 || start+count > dev.NumBlocks() {
			return wire, fmt.Errorf("core: delta refusal names extent [%d,+%d) outside the device", start, count)
		}
		if need := count * bs; cap(buf) < need {
			transport.PutBuf(buf)
			buf = transport.GetBuf(need)
		}
		ext := bitmap.Extent{Start: start, Count: count}
		data := buf[:count*bs]
		if err := readExtent(dev, ext, data); err != nil {
			return wire, err
		}
		t.deltaBlocks -= count // the patch was refused; these blocks moved literally
		lit, err := t.sendLiteral(ext, data, limited)
		if err != nil {
			return wire, err
		}
		wire += lit
	}
	return wire, nil
}

// --- Destination side ---

// checkDeltaExtent validates a MsgDeltaSig/MsgDeltaPatch Arg against the
// prepared VBD.
func (t *transfer) checkDeltaExtent(arg uint64) (bitmap.Extent, error) {
	start, count := transport.ExtentSplit(arg)
	dev := t.host.Backend.Device()
	if count < 1 || start < 0 || start+count > dev.NumBlocks() {
		return bitmap.Extent{}, fmt.Errorf("core: delta extent [%d,+%d) outside %d-block VBD", start, count, dev.NumBlocks())
	}
	return bitmap.Extent{Start: start, Count: count}, nil
}

// readExtent reads the destination's current on-disk content for ext into a
// pooled buffer the caller must PutBuf.
func (d *destRun) readExtent(ext bitmap.Extent) ([]byte, error) {
	dev := d.host.Backend.Device()
	buf := transport.GetBuf(ext.Count * dev.BlockSize())
	if err := readExtent(dev, ext, buf); err != nil {
		transport.PutBuf(buf)
		return nil, err
	}
	return buf, nil
}

// handleDeltaSig answers one signature request from the destination's
// current content. Runs under drainOn, so every earlier write is on the
// device before its content is summarized.
func (d *destRun) handleDeltaSig(m transport.Message) error {
	if m.Arg == deltaFenceArg {
		// End-of-pass fence: by FIFO, every refusal this pass produced is
		// already ahead of this echo on the return path.
		return d.destSend(transport.Message{Type: transport.MsgDeltaSig, Arg: deltaFenceArg})
	}
	ext, err := d.checkDeltaExtent(m.Arg)
	if err != nil {
		return err
	}
	old, err := d.readExtent(ext)
	if err != nil {
		return err
	}
	sig := delta.Sig(old, d.cfg.DeltaChunk)
	transport.PutBuf(old)
	return d.destSend(transport.Message{Type: transport.MsgDeltaSig, Arg: m.Arg, Payload: sig.Marshal()})
}

// handleDeltaPatch applies one patch against the destination's current
// content, verifying the patch's embedded strong hash before any byte
// lands. A patch that fails to parse, rebuild, or verify is refused back to
// the source with an empty echo — the literal re-send follows before the
// fence — and is never partially applied.
func (d *destRun) handleDeltaPatch(m transport.Message) error {
	ext, err := d.checkDeltaExtent(m.Arg)
	if err != nil {
		return err
	}
	dev := d.host.Backend.Device()
	bs := dev.BlockSize()
	old, err := d.readExtent(ext)
	if err != nil {
		return err
	}
	out, aerr := delta.Apply(old, m.Payload)
	transport.PutBuf(old)
	if aerr == nil && len(out) != ext.Count*bs {
		aerr = fmt.Errorf("core: patch rebuilt %d bytes for a %d-block extent", len(out), ext.Count)
	}
	if aerr != nil {
		return d.destSend(transport.Message{Type: transport.MsgDeltaPatch, Arg: m.Arg})
	}
	for k := 0; k < ext.Count; k++ {
		blk := out[k*bs : (k+1)*bs]
		if err := dev.WriteBlock(ext.Start+k, blk); err != nil {
			return fmt.Errorf("core: apply delta block %d: %w", ext.Start+k, err)
		}
		if d.dd != nil {
			d.dd.observe(ext.Start+k, blk)
		}
	}
	d.deltaBlocks += ext.Count
	d.noteRecvBlocks(ext.Start, ext.End())
	return nil
}
