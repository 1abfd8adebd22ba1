package core

import (
	"fmt"

	"bbmig/internal/blockdev"
	"bbmig/internal/dedup"
	"bbmig/internal/transport"
)

// This file is the destination half of content-addressed transfer
// (Config.Dedup), the advert applier of the receive loop; the source half is
// a probe of the window in probe.go. A wholly zero extent never gets here:
// the zero stage sends it as one MsgZeroExtent. Memory pages,
// freeze-and-copy, and post-copy pushes are never deduplicated.

// destDedup is one migration's destination-side dedup session: the
// fingerprint index consulted for adverts (possibly shared with concurrent
// sessions), this session's own stage and fingerprint scratch, and the name
// the destination VBD's own blocks are observed under.
type destDedup struct {
	idx   *dedup.Index
	self  string
	stage dedup.Stage         // content the advert being answered staged
	fps   []dedup.Fingerprint // the advert being answered, decoded

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

// handleAdvert answers one MsgHashAdvert. Every block the index verified,
// whose fingerprint is zero, or that a swarm peer produced (verified) is
// written here, observed and counted as landed; the reply wants the rest, so
// a clear bit is a completed write. Runs under drainOn: every earlier literal
// is applied, and observed, before the lookup.
func (d *destRun) handleAdvert(m transport.Message) error {
	ext, err := splitExtent(m.Arg, d.dev)
	if err == nil {
		err = d.openDedup()
	}
	if err != nil {
		return err
	}
	dd := d.dd
	if dd.fps, err = dedup.ParseFingerprintsInto(dd.fps, m.Payload, ext.Count); err != nil {
		return err
	}
	want := dd.idx.AnswerInto(&dd.stage, dd.fps)
	var fetched map[dedup.Fingerprint][]byte // what the peer fleet holds of the rest
	if dd.swarm != nil {
		var missing []dedup.Fingerprint
		seen := make(map[dedup.Fingerprint]bool)
		for k, fp := range dd.fps {
			if dedup.Want(want, k) && !seen[fp] {
				seen[fp] = true
				missing = append(missing, fp)
			}
		}
		fetched = dd.swarm.fetch(missing, d.dev.BlockSize())
	}
	for k, fp := range dd.fps {
		content, ok := fetched[fp]
		switch {
		case !dedup.Want(want, k):
			content, _ = dd.idx.Materialize(&dd.stage, fp) // nothing staged fails the write
		case !ok:
			continue // the literal follows
		default:
			dedup.ClearWant(want, k)
			dd.swarmBlocks++
		}
		if err := blockdev.WriteExtent(d.dev, ext.Start+k, 1, content); err != nil {
			return fmt.Errorf("core: write block %d at its advert: %w", ext.Start+k, err)
		}
		dd.idx.Observe(dd.self, ext.Start+k, fp)
		d.refBlocks++
		d.noteRecvBlocks(ext.Start+k, ext.Start+k+1)
	}
	reply := dedup.AppendWantReply(transport.GetBuf(dedup.WantReplyLen(ext.Count))[:0], want)
	defer transport.PutBuf(reply) // send only borrows it
	return d.destReply(transport.Message{Type: transport.MsgHashWant, Arg: m.Arg, Payload: reply})
}
