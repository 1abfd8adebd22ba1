package core

import (
	"fmt"

	"bbmig/internal/bitmap"
	"bbmig/internal/delta"
	"bbmig/internal/transport"
)

// This file is the engine half of delta-encoded transfer (Config.Delta), the
// WAN path for content that diverged but stayed similar — the 11-35% hot-block
// rewrites exact-match dedup cannot exploit. Per extent the source requests
// the signature of the destination's current content (MsgDeltaSig, carrying a
// hint of the new content), the destination answers with the chunk signature
// against it, and the source ships a COPY/LITERAL patch (MsgDeltaPatch) or,
// when that is no smaller, the literal. The destination checks every patch's
// SHA-256 trailer before a byte lands; a refusal goes back (MsgDeltaPatch,
// empty payload) and the source re-sends the extent literally before the
// pass's fence: degraded, never wrong. The delta encoder sits directly above
// the literal in the extent encoder chain and below dedup, so with Dedup also
// set it sees exactly the runs the want-bitmap asked for. Memory pages,
// freeze-and-copy, and post-copy pushes are never delta-encoded.

// deltaFenceArg is the MsgDeltaSig Arg bounding one delta send pass.
// ExtentArg never produces 0 (a packed extent has count >= 1), so the value
// can never collide with a real signature request.
const deltaFenceArg = 0

// deltaEncoder returns the chain stage that moves an extent through the
// signature round trip. A patch no smaller than the content hands the extent
// to next instead — frames every destination accepts, so the round trip
// gates cost, never correctness.
func (t *transfer) deltaEncoder(next extentEncoder, limited bool) extentEncoder {
	var differ delta.Differ // table and patch scratch, reused extent to extent
	return func(ext bitmap.Extent, data []byte) (int64, error) {
		arg := transport.ExtentArg(ext.Start, ext.Count)
		hint := delta.AppendHint(transport.GetBuf(delta.HintLen(len(data)))[:0], data)
		defer transport.PutBuf(hint) // send only borrows it
		req := transport.Message{Type: transport.MsgDeltaSig, Arg: arg, Payload: hint}
		if err := t.send(req, limited); err != nil {
			return 0, err
		}
		wire := int64(req.FrameSize())
		sigRaw, err := t.awaitReply(transport.MsgDeltaSig, arg)
		if err != nil {
			return wire, err
		}
		defer transport.PutBuf(sigRaw) // sig is a view of the reply: it dies here
		sig, perr := delta.ViewSignature(sigRaw)
		if perr != nil {
			return wire, fmt.Errorf("core: delta signature for extent [%d,+%d): %w", ext.Start, ext.Count, perr)
		}
		patch := differ.Diff(&sig, data) // borrowed until the next Diff; send borrows it in turn
		if len(patch) >= len(data) {
			// Diverged wholesale: the literal is no bigger and needs no apply.
			t.deltaDeclined += ext.Count
			lit, err := next(ext, data)
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
	echo, err := t.awaitReply(transport.MsgDeltaSig, deltaFenceArg)
	if err != nil {
		return wire, err
	}
	transport.PutBuf(echo)
	t.deltaMu.Lock()
	naks := t.deltaNaks
	t.deltaNaks = nil
	t.deltaMu.Unlock()
	for _, arg := range naks {
		ext, err := splitExtent(arg, t.srcDev)
		if err != nil {
			return wire, fmt.Errorf("core: delta refusal: %w", err)
		}
		t.deltaRefused += ext.Count // the patch was refused; these blocks move literally
		lit, err := t.sendRead(ext, limited)
		if err != nil {
			return wire, err
		}
		wire += lit
	}
	return wire, nil
}

// --- Destination side ---

// handleDeltaSig answers one signature request from the destination's
// current content, against the request's hint, which must cover the extent
// exactly. Runs under drainOn, so every earlier write is on the device before
// its content is summarized.
func (d *destRun) handleDeltaSig(m transport.Message) error {
	if m.Arg == deltaFenceArg {
		// End-of-pass fence: by FIFO, every refusal this pass produced is
		// already ahead of this echo on the return path.
		return d.destSend(transport.Message{Type: transport.MsgDeltaSig, Arg: deltaFenceArg})
	}
	ext, err := splitExtent(m.Arg, d.dev)
	if err != nil {
		return err
	}
	if want := delta.HintLen(ext.Count * d.dev.BlockSize()); len(m.Payload) != want {
		return fmt.Errorf("core: delta signature request for extent [%d,+%d): %d-byte hint, want %d",
			ext.Start, ext.Count, len(m.Payload), want)
	}
	old, err := readPooled(d.dev, ext)
	if err != nil {
		return err
	}
	// The records are computed straight into the reply's pooled payload.
	sig := delta.AppendSig(transport.GetBuf(delta.SigLen(len(old), d.cfg.DeltaChunk, 0))[:0], old, d.cfg.DeltaChunk, m.Payload)
	transport.PutBuf(old)
	defer transport.PutBuf(sig)
	return d.destSend(transport.Message{Type: transport.MsgDeltaSig, Arg: m.Arg, Payload: sig})
}

// handleDeltaPatch applies one patch against the destination's current
// content, verifying the patch's SHA-256 trailer before any byte
// lands. A patch that fails to parse, rebuild, or verify is refused back to
// the source with an empty echo — the literal re-send follows before the
// fence — and is never partially applied.
func (d *destRun) handleDeltaPatch(m transport.Message) error {
	ext, err := splitExtent(m.Arg, d.dev)
	if err != nil {
		return err
	}
	bs := d.dev.BlockSize()
	old, err := readPooled(d.dev, ext)
	if err != nil {
		return err
	}
	buf := transport.GetBuf(ext.Count * bs)
	defer transport.PutBuf(buf) // once the rebuilt blocks are written
	out, aerr := delta.AppendApply(buf[:0], old, m.Payload)
	transport.PutBuf(old)
	if aerr == nil && len(out) != ext.Count*bs {
		aerr = fmt.Errorf("core: patch rebuilt %d bytes for a %d-block extent", len(out), ext.Count)
	}
	if aerr != nil {
		return d.destSend(transport.Message{Type: transport.MsgDeltaPatch, Arg: m.Arg})
	}
	if err := d.writeExtent(ext, out, nil); err != nil {
		return err
	}
	d.patchBlocks += ext.Count
	d.noteRecvBlocks(ext.Start, ext.End())
	return nil
}
