package core

import (
	"fmt"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/dedup"
	"bbmig/internal/transport"
)

// This file is the engine half of content-addressed transfer (Config.Dedup):
// the source-side dedup encoder, the extent encoder chain's stage below the
// zero stage, and the destination-side advert/reference appliers wired into
// the receive loop. The protocol per extent is strictly alternating — one
// MsgHashAdvert, one MsgHashWant reply, then the extent's wanted sub-runs
// (handed down the chain) and MsgBlockRef sub-runs — so at most one advert is
// ever outstanding and a reference only ever names a fingerprint from the
// advert that immediately precedes it (or the implicit zero fingerprint,
// which the destination resolves without one). A wholly zero extent never
// gets here: the zero stage above sends it as one MsgZeroExtent. Memory
// pages, freeze-and-copy, and post-copy pushes are never deduplicated.

// dedupEncoder returns the chain stage that fingerprints each extent, adverts
// the fingerprints, ships what the destination can already produce as 16-byte
// references, and hands the runs it wants — exactly the content exact-match
// dedup could not save — to next.
func (t *transfer) dedupEncoder(next extentEncoder, limited bool) extentEncoder {
	bs := t.dev.BlockSize()
	zero := dedup.ZeroFingerprint(bs)
	var fps []dedup.Fingerprint
	return func(ext bitmap.Extent, data []byte) (int64, error) {
		fps = fps[:0]
		for k := 0; k < ext.Count; k++ {
			// Comparing a zero block costs a fraction of hashing it.
			fp := zero
			if blk := data[k*bs : (k+1)*bs]; !dedup.IsZero(blk) {
				fp = dedup.Of(blk)
			}
			fps = append(fps, fp)
		}
		// Adverts and references are staged in one pooled scratch buffer: a
		// send only borrows its payload, so the scratch is reusable on return.
		fpBuf := transport.GetBuf(len(fps) * dedup.FingerprintSize)
		defer transport.PutBuf(fpBuf)
		arg := transport.ExtentArg(ext.Start, ext.Count)
		adv := transport.Message{Type: transport.MsgHashAdvert, Arg: arg, Payload: dedup.AppendFingerprints(fpBuf[:0], fps)}
		if err := t.send(adv, limited); err != nil {
			return 0, err
		}
		wire := int64(adv.FrameSize())
		want, err := t.awaitReply(transport.MsgHashWant, arg)
		if err != nil {
			return wire, err
		}
		defer transport.PutBuf(want) // the reply's pooled payload
		if err := dedup.CheckMask(want, ext.Count); err != nil {
			return wire, fmt.Errorf("core: want bitmap: %w", err)
		}
		// Walk the want bitmap as maximal same-verdict runs: wanted runs go
		// down the chain, unwanted runs travel as fingerprint references.
		err = dedup.WalkWant(ext.Count, want, func(off, n int, wanted bool) error {
			sub := bitmap.Extent{Start: ext.Start + off, Count: n}
			if wanted {
				w, err := next(sub, data[off*bs:(off+n)*bs])
				wire += w
				return err
			}
			ref := transport.Message{
				Type:    transport.MsgBlockRef,
				Arg:     transport.ExtentArg(sub.Start, sub.Count),
				Payload: dedup.AppendFingerprints(fpBuf[:0], fps[off:off+n]),
			}
			if err := t.send(ref, limited); err != nil {
				return err
			}
			t.dedupBlocks.Add(int64(n))
			wire += int64(ref.FrameSize())
			return nil
		})
		return wire, err
	}
}

// --- Destination side ---

// destDedup is one migration's destination-side dedup session: the
// fingerprint index consulted for adverts (possibly shared with concurrent
// sessions), this session's own stage and fingerprint scratch, and the name
// the destination VBD's own blocks are observed under.
type destDedup struct {
	idx   *dedup.Index
	self  string
	stage dedup.Stage         // content staged between an advert and its references
	fps   []dedup.Fingerprint // the frame being handled, decoded

	// swarm fans want-sets across peer host daemons (Config.SwarmPeers),
	// nil for a single-source session; swarmBlocks counts what peers
	// produced.
	swarm       *swarmClient
	swarmBlocks int
}

// openDedup opens the destination's session at the first frame that needs
// one — a dedup source's first disk frame that is not a zero run is an
// advert, so it observes every block but the zero runs ahead of it, which no
// lookup needs (the zero fingerprint always resolves, and the index verifies
// what it serves on read): the index, with this VBD registered as a lookup
// source so content received earlier in the migration deduplicates later
// iterations, and the swarm when it has peers. It runs with the lanes
// drained, so every write that observes into the session is handed to them
// after it exists.
func (d *destRun) openDedup() error {
	if d.dd != nil {
		return nil
	}
	idx := d.cfg.DedupIndex
	if idx == nil {
		idx = dedup.NewIndex(d.dev.BlockSize())
	}
	name := d.cfg.DedupName
	if name == "" {
		name = "self"
	}
	if err := idx.RegisterSource(name, d.dev); err != nil {
		return err
	}
	d.dd = &destDedup{idx: idx, self: name}
	if len(d.cfg.SwarmPeers) > 0 {
		// Peers that fail to dial or refuse the hello drop out here; losing
		// all of them just leaves the session single-source.
		d.dd.swarm = dialSwarm(d.cfg, name, d.dev.BlockSize())
	}
	return nil
}

// observe hashes one applied literal block into the index. Called from the
// pool's lanes (references observe the fingerprint they name); the index is
// concurrency-safe.
func (dd *destDedup) observe(block int, data []byte) {
	dd.idx.ObserveContent(dd.self, block, data)
}

// close ends the session, if there was one: stage buffer back to the pool,
// swarm sidecar connections torn down.
func (dd *destDedup) close() {
	if dd != nil {
		dd.stage.Release()
		if dd.swarm != nil {
			dd.swarm.close()
		}
	}
}

// checkFPExtent validates a MsgHashAdvert/MsgBlockRef frame against the
// prepared VBD, joins the dedup session, and decodes the frame's fingerprints
// into the session's scratch, valid until the next frame is checked.
func (d *destRun) checkFPExtent(m transport.Message) (bitmap.Extent, []dedup.Fingerprint, error) {
	ext, err := splitExtent(m.Arg, d.dev)
	if err == nil {
		err = d.openDedup()
	}
	if err != nil {
		return ext, nil, err
	}
	d.dd.fps, err = dedup.ParseFingerprintsInto(d.dd.fps, m.Payload, ext.Count)
	return ext, d.dd.fps, err
}

// handleAdvert answers one MsgHashAdvert through Index.AnswerInto, which
// replaces the previous advert's staging wholesale: references only ever name
// the immediately preceding advert (or zero). Runs under drainOn, so every
// earlier literal is applied — and observed — before the lookup.
func (d *destRun) handleAdvert(m transport.Message) error {
	_, fps, err := d.checkFPExtent(m)
	if err != nil {
		return err
	}
	want := d.dd.idx.AnswerInto(&d.dd.stage, fps)
	// Swarm fetch: before conceding a literal send, ask the peer fleet for
	// the still-wanted content. Whatever arrives (already verified against
	// its fingerprint) is staged exactly as locally-produced content is, and
	// its want bit clears so the source ships a 16-byte reference instead.
	// Anything the swarm misses stays wanted: the literal is the fallback.
	if d.dd.swarm != nil {
		var missing []dedup.Fingerprint
		seen := make(map[dedup.Fingerprint]bool)
		for k, fp := range fps {
			if dedup.Want(want, k) && !seen[fp] {
				seen[fp] = true
				missing = append(missing, fp)
			}
		}
		if len(missing) > 0 {
			got := d.dd.swarm.fetch(missing, d.dev.BlockSize())
			for k, fp := range fps {
				if !dedup.Want(want, k) {
					continue
				}
				if content, ok := got[fp]; ok {
					d.dd.stage.Put(k, fp, content)
					dedup.ClearWant(want, k)
					d.dd.swarmBlocks++
				}
			}
		}
	}
	return d.destSend(transport.Message{Type: transport.MsgHashWant, Arg: m.Arg, Payload: want})
}

// applyBlockRef materializes one MsgBlockRef run through Index.Materialize;
// the device copies the borrowed content. An unresolvable fingerprint is a
// protocol error (the source only references content this destination
// claimed): failing the migration is the only answer that cannot write wrong bytes.
func (d *destRun) applyBlockRef(m transport.Message) error {
	ext, fps, err := d.checkFPExtent(m)
	if err != nil {
		return err
	}
	for k, fp := range fps {
		content, ok := d.dd.idx.Materialize(&d.dd.stage, fp)
		if !ok {
			return fmt.Errorf("core: block ref %d names content this host cannot produce", ext.Start+k)
		}
		if err := blockdev.WriteExtent(d.dev, ext.Start+k, 1, content); err != nil {
			return fmt.Errorf("core: apply block ref %d: %w", ext.Start+k, err)
		}
		d.dd.idx.Observe(d.dd.self, ext.Start+k, fp)
	}
	d.refBlocks += ext.Count
	d.noteRecvBlocks(ext.Start, ext.End())
	return nil
}
