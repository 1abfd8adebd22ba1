package core

import (
	"fmt"

	"bbmig/internal/delta"
	"bbmig/internal/transport"
)

// This file is the destination half of delta-encoded transfer (Config.Delta),
// the WAN path for content that diverged but stayed similar — the 11-35%
// hot-block rewrites exact-match dedup cannot exploit; the source half is a
// probe of the window in probe.go. The destination answers a signature
// request (MsgDeltaSig, hinting at the new content) with the chunk signature
// of its current content, and checks every patch's SHA-256 trailer before a
// byte lands; a refusal goes back (MsgDeltaPatch, empty payload) and the
// source re-sends the extent literally at the pass's fence: degraded, never
// wrong. Memory pages, freeze-and-copy, and post-copy pushes are never
// delta-encoded.

// deltaFenceArg is the MsgDeltaSig Arg bounding one delta send pass.
// ExtentArg never produces 0 (a packed extent has count >= 1), so the value
// can never collide with a real signature request.
const deltaFenceArg = 0

// --- Destination side ---

// handleDeltaSig answers one signature request from the destination's
// current content, against the request's hint, which must cover the extent
// exactly. Runs under drainOn, so every earlier write is on the device before
// its content is summarized.
func (d *destRun) handleDeltaSig(m transport.Message) error {
	if m.Arg == deltaFenceArg {
		// End-of-pass fence: by FIFO, every refusal this pass produced is
		// already ahead of this echo on the return path.
		return d.destReply(transport.Message{Type: transport.MsgDeltaSig, Arg: deltaFenceArg})
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
	return d.destReply(transport.Message{Type: transport.MsgDeltaSig, Arg: m.Arg, Payload: sig})
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
		return d.destReply(transport.Message{Type: transport.MsgDeltaPatch, Arg: m.Arg})
	}
	if err := d.writeExtent(ext, out, nil); err != nil {
		return err
	}
	d.patchBlocks += ext.Count
	d.noteRecvBlocks(ext.Start, ext.End())
	return nil
}
