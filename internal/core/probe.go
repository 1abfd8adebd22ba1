package core

import (
	"fmt"
	"slices"

	"bbmig/internal/bitmap"
	"bbmig/internal/dedup"
	"bbmig/internal/delta"
	"bbmig/internal/transport"
)

// This file is the source half of the content probes (Config.Dedup, Delta):
// the one window both exchanges run in. A probe asks the destination what it
// holds of one extent — a MsgHashAdvert of fingerprints, answered by writing
// every block it can produce and wanting the rest (WIRE.md §10), or a
// MsgDeltaSig request hinting at the new content, answered with a signature
// of the old (§12). Replies come in request order. A request is a control
// frame, which no stager holds, so waiting on its reply needs no flush.

// probeWindow bounds the probes outstanding. Probe i+probeWindow is sent only
// after reply i and what it asked for, so each advert is answered after all
// probeWindow extents back has landed: the content a cold index learns from.
const probeWindow = 8

// replyTo names each request's reply type.
var replyTo = map[transport.MsgType]transport.MsgType{transport.MsgHashAdvert: transport.MsgHashWant, transport.MsgDeltaSig: transport.MsgDeltaSig}

// probe is one extent in the window and the pooled buffer it returns once
// its reply is handled; an advert's fingerprints stay pending until all it
// named has landed. A later probe cut from it may take both over.
type probe struct {
	typ            transport.MsgType // MsgHashAdvert or MsgDeltaSig
	ext            bitmap.Extent
	data, own, fps []byte
}

// window is one send pass's probes: q[:out] await replies, oldest first, the
// rest a slot. pending counts the non-zero fingerprints of the adverts
// awaiting replies, and patched the patches the pass's fence must bound.
// memo fingerprints the pass's adverts, each distinct content once when
// Dedup reads a blockdev.Stamped device.
type window struct {
	t            *transfer
	limited      bool
	q            []probe
	out, patched int
	pending      map[dedup.Fingerprint]int
	differ       delta.Differ
	memo         dedup.Memo
}

// push is the chain stage above the literal: it takes ext's buffer over as an
// advert (Dedup) or a signature request and sends what the window lets out.
func (w *window) push(ext bitmap.Extent, data []byte) error {
	typ := transport.MsgDeltaSig
	if w.t.cfg.Dedup {
		typ = transport.MsgHashAdvert
	}
	w.q = append(w.q, probe{typ, ext, data, data, nil})
	return w.pump()
}

// pump sends waiting probes, handling the oldest reply while probeWindow are
// outstanding or the next advert names pending content, which must land
// first, so a cold index answers it as it did one request at a time.
func (w *window) pump() (err error) {
	for err == nil && w.out < len(w.q) {
		if p := &w.q[w.out]; w.out == probeWindow || w.repeats(p) && w.out > 0 {
			err = w.handle()
		} else if err = w.request(p); err == nil {
			w.out++
		}
	}
	return err
}

// drain ends the pass unless err is set: every probe handled, then the fence.
// It returns the buffers of the probes left.
func (w *window) drain(err error) error {
	for err == nil && len(w.q) > 0 {
		if err = w.handle(); err == nil {
			err = w.pump()
		}
	}
	for _, p := range w.q {
		transport.PutBuf(p.own)
		transport.PutBuf(p.fps)
	}
	w.t.rep.DedupHashes += int(w.memo.Hashes)
	if err == nil && w.patched > 0 {
		err = w.fence()
	}
	return err
}

// repeats takes an advert's fingerprints, a zero block's unhashed (at a
// fraction of the cost), the rest through the memo, and reports whether one
// is pending.
func (w *window) repeats(p *probe) bool {
	if p.typ != transport.MsgHashAdvert {
		return false
	}
	if bs := w.t.dev.BlockSize(); p.fps == nil {
		p.fps = transport.GetBuf(p.ext.Count * dedup.FingerprintSize)[:0]
		for k := 0; k < p.ext.Count; k++ {
			fp := dedup.ZeroFingerprint(bs)
			if blk := p.data[k*bs : (k+1)*bs]; !dedup.IsZero(blk) {
				fp = w.memo.Of(p.ext.Start+k, blk, 0)
			}
			p.fps = append(p.fps, fp[:]...)
		}
	}
	return w.count(p.fps, 0)
}

// count adds d to the pending count of each non-zero fingerprint of fps and
// reports whether any was pending before.
func (w *window) count(fps []byte, d int) (pending bool) {
	for off := 0; off < len(fps); off += dedup.FingerprintSize {
		if fp := dedup.Fingerprint(fps[off:]); fp != dedup.ZeroFingerprint(w.t.dev.BlockSize()) {
			pending = pending || w.pending[fp] > 0
			if w.pending[fp] += d; w.pending[fp] == 0 {
				delete(w.pending, fp)
			}
		}
	}
	return pending
}

// request sends p's request: the advert's fingerprints, or the hint of the
// content.
func (w *window) request(p *probe) error {
	payload := p.fps
	if p.typ == transport.MsgDeltaSig {
		payload = delta.AppendHint(transport.GetBuf(delta.HintLen(len(p.data)))[:0], p.data)
		defer transport.PutBuf(payload) // send only borrows it
	} else {
		w.count(p.fps, 1)
	}
	return w.t.send(transport.Message{Type: p.typ, Arg: transport.ExtentArg(p.ext.Start, p.ext.Count), Payload: payload}, w.limited)
}

// handle takes the oldest probe out, waits for its reply and sends what the
// reply asks for.
func (w *window) handle() error {
	p := w.q[0]
	w.q, w.out = append(w.q[:0], w.q[1:]...), w.out-1
	defer func() { transport.PutBuf(p.own); transport.PutBuf(p.fps) }()
	raw, err := w.t.awaitReply(replyTo[p.typ], transport.ExtentArg(p.ext.Start, p.ext.Count))
	if err != nil {
		return err
	}
	defer transport.PutBuf(raw) // the views below die with it
	if p.typ == transport.MsgHashAdvert {
		err = w.wanted(&p, raw)
	} else {
		err = w.patch(p, raw)
	}
	w.count(p.fps, -1) // landed, unless a later probe took them over
	return err
}

// wanted walks a dedup reply: the destination wrote what it did not want,
// and the wanted runs go as literals or, with Delta, as delta probes at the
// window's tail, ahead of those unsent, the last taking p's buffers over.
func (w *window) wanted(p *probe, raw []byte) error {
	want, err := dedup.ParseWantReply(raw, p.ext.Count)
	if err != nil {
		return fmt.Errorf("core: dedup want reply for extent [%d,+%d): %w", p.ext.Start, p.ext.Count, err)
	}
	bs, tail := w.t.dev.BlockSize(), w.out
	err = dedup.WalkWant(p.ext.Count, want, func(off, n int, wanted bool) error {
		sub, data := bitmap.Extent{Start: p.ext.Start + off, Count: n}, p.data[off*bs:(off+n)*bs]
		switch {
		case !wanted:
			w.t.dedupBlocks.Add(int64(n))
		case w.t.cfg.Delta:
			w.q = slices.Insert(w.q, tail, probe{transport.MsgDeltaSig, sub, data, nil, nil})
			tail++
		default:
			return w.t.send(extentMessage(sub, data), w.limited)
		}
		return nil
	})
	if tail > w.out {
		w.q[tail-1].own, w.q[tail-1].fps, p.own, p.fps = p.own, p.fps, nil, nil
	}
	return err
}

// patch diffs p's content against a delta reply's signature and sends the
// patch, or the literal when the patch is no smaller: the round trip gates
// cost, never correctness.
func (w *window) patch(p probe, raw []byte) error {
	sig, err := delta.ViewSignature(raw)
	if err != nil {
		return fmt.Errorf("core: delta signature for extent [%d,+%d): %w", p.ext.Start, p.ext.Count, err)
	}
	m := transport.Message{Type: transport.MsgDeltaPatch, Arg: transport.ExtentArg(p.ext.Start, p.ext.Count)}
	if m.Payload = w.differ.Diff(&sig, p.data); len(m.Payload) >= len(p.data) {
		w.t.deltaDeclined += p.ext.Count
		m = extentMessage(p.ext, p.data)
	}
	if err := w.t.send(m, w.limited); err != nil || m.Type != transport.MsgDeltaPatch {
		return err
	}
	w.t.deltaBlocks += p.ext.Count
	w.patched++
	return nil
}

// fence bounds a pass that sent patches: the Arg-0 signature request's echo
// comes after every refusal of the pass, both directions being FIFO, and the
// refused extents are re-sent literally within the pass, so iteration
// accounting on both sides stays exact.
func (w *window) fence() error {
	if err := w.t.send(transport.Message{Type: transport.MsgDeltaSig, Arg: deltaFenceArg}, w.limited); err != nil {
		return err
	}
	echo, err := w.t.awaitReply(transport.MsgDeltaSig, deltaFenceArg)
	if err != nil {
		return err
	}
	transport.PutBuf(echo)
	w.t.deltaMu.Lock()
	naks := w.t.deltaNaks
	w.t.deltaNaks = nil
	w.t.deltaMu.Unlock()
	for _, arg := range naks {
		ext, err := splitExtent(arg, w.t.srcDev)
		if err != nil {
			return fmt.Errorf("core: delta refusal: %w", err)
		}
		w.t.deltaRefused += ext.Count // these blocks move literally
		if err := w.t.sendRead(ext, w.limited); err != nil {
			return err
		}
	}
	return nil
}
