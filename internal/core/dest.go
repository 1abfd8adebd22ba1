package core

import (
	"fmt"
	"sync"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/dedup"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
)

// DestResult is what a completed destination-side migration hands back.
type DestResult struct {
	// Report carries the destination's view of the run.
	Report *metrics.Report
	// Gate is the post-copy gate, fully synchronized. Its FreshBitmap is
	// the input to an incremental migration back (§V).
	Gate *blkback.PostCopyGate
	// CPU is the received CPU state (also installed into the VM).
	CPU vm.CPUState
}

// MigrateDest runs the destination side of a TPM migration over conn. host
// provides the prepared VBD (via its Backend) and the VM shell that will
// receive memory, CPU state, and eventually run. The function returns once
// the local disk is fully synchronized with the (now stopped) source.
//
// Like the source, the destination is a phase list — handshake, pre-copy
// receive, post-copy — announced on cfg.OnEvent, so a host daemon can report
// the live state of an inbound migration.
func MigrateDest(cfg Config, host Host, conn transport.Conn) (*DestResult, error) {
	d := newDestRun(cfg, host, conn, "TPM-dest")
	// Only this scheme answers a reconnecting source.
	d.destState = d.progressSnapshot
	return d.run([]phase{
		{PhaseHandshake, d.acceptHandshake},
		// The destination cannot tell the disk, memory and freeze sub-phases
		// apart more precisely than the control frames it receives; the event
		// stream reports iteration ends and the suspend as they arrive.
		{PhaseDiskPreCopy, d.receiveUntilResume(d.vmHandlers(), d.iterHandlers(), d.diskHandlers(), d.bitmapHandler())},
		{PhasePostCopy, steps(d.resumeBehindGate, d.postCopyReceive)},
	})
}

// destRun is the destination endpoint of every scheme: the steps below, each
// written once, chained by a scheme's phase list.
type destRun struct {
	*transfer

	res         *DestResult
	lanes       *lanePool
	dd          *destDedup     // content-dedup session (nil until the first dedup frame)
	recvBlocks  int            // blocks landed in any form: literal, at an advert, zero run or patch
	refBlocks   int            // blocks landed at an advert or as zero runs (Report.DedupBlocks)
	patchBlocks int            // blocks landed as delta patches (Report.DeltaBlocks)
	transferred *bitmap.Bitmap // the freeze bitmap, set by bitmapHandler
	postStart   time.Time

	// prog is the pipeline position reported to a reconnecting source in
	// the session ack — the destination's half of the agreement on which
	// blocks are still owed. Guarded by progMu: the receive loop updates it
	// while a concurrent pull-send may be recovering the connection.
	progMu sync.Mutex
	prog   destProgress
}

// newDestRun assembles the destination endpoint of scheme over conn.
func newDestRun(cfg Config, host Host, conn transport.Conn, scheme string) *destRun {
	tr := newTransfer(cfg.withDefaults(), host, conn, scheme, "dest")
	return &destRun{transfer: tr, res: &DestResult{Report: tr.rep}}
}

// run executes the scheme's phase list and closes the report with what the
// gate, when the scheme built one, and the dedup session counted.
func (d *destRun) run(phases []phase) (*DestResult, error) {
	defer func() { d.dd.close() }()
	// Data frames are handed to the lane pool; every control frame drains
	// it first, so iteration boundaries order cross-iteration rewrites exactly
	// as a sequential loop would.
	d.lanes = newLanePool(d.cfg.Workers, 0)
	defer d.lanes.close()
	cursor := 0
	err := d.runPhases(phases, &cursor)
	if err == nil {
		rep := d.rep
		rep.PostCopyTime = time.Since(d.postStart)
		rep.DedupBlocks, rep.DeltaBlocks = d.refBlocks, d.patchBlocks
		if d.dd != nil {
			rep.SwarmBlocks = d.dd.swarmBlocks
		}
		if gate := d.res.Gate; gate != nil {
			gs := gate.Stats()
			rep.BlocksPulled = int(gs.Pulls)
			rep.StalePushes = int(gs.StalePushes)
			rep.ReadStallTime = gs.ReadStallTime
			rep.ResidualDirty = gate.RemainingDirty()
		}
	}
	return d.res, d.finish(err)
}

// progressSnapshot implements the transfer.destState callback. The cursor
// bitmaps are cloned: the receive loop may keep applying frames (one-sided
// failure) while another goroutine marshals the snapshot.
func (d *destRun) progressSnapshot() destProgress {
	d.progMu.Lock()
	defer d.progMu.Unlock()
	p := d.prog
	if p.recvDisk != nil {
		p.recvDisk = p.recvDisk.Clone()
	}
	if p.recvMem != nil {
		p.recvMem = p.recvMem.Clone()
	}
	return p
}

// noteRecvBlocks counts blocks [lo,hi) as landed and records them in the
// in-flight disk iteration's transfer cursor, when there is one.
func (d *destRun) noteRecvBlocks(lo, hi int) {
	d.recvBlocks += hi - lo
	d.progMu.Lock()
	if bm := d.prog.recvDisk; bm != nil && lo >= 0 && hi <= bm.Len() && lo < hi {
		bm.SetRange(lo, hi)
	}
	d.progMu.Unlock()
}

// noteProgress applies one update to the progress record.
func (d *destRun) noteProgress(fn func(*destProgress)) {
	d.progMu.Lock()
	fn(&d.prog)
	d.progMu.Unlock()
}

// writeExtent lands a validated extent on the VBD — a literal payload in one
// request, a zero run (empty payload) from zeros, a run's worth of blocks per
// request — and then, in a dedup session, records each block's content in
// the index: a literal hashed, a zero block under the zero fingerprint.
// Called from the pool's lanes.
func (d *destRun) writeExtent(ext bitmap.Extent, payload, zeros []byte) error {
	bs := d.dev.BlockSize()
	for lo := ext.Start; lo < ext.End(); {
		data, count := payload, ext.Count
		if len(payload) == 0 {
			data, count = zeros, min(len(zeros)/bs, ext.End()-lo)
		}
		if err := blockdev.WriteExtent(d.dev, lo, count, data); err != nil {
			return fmt.Errorf("core: apply blocks [%d,+%d): %w", lo, count, err)
		}
		lo += count
	}
	for k := 0; d.dd != nil && k < ext.Count; k++ {
		if len(payload) == 0 {
			d.dd.idx.Observe(d.dd.self, ext.Start+k, dedup.ZeroFingerprint(bs))
		} else {
			d.dd.idx.ObserveContent(d.dd.self, ext.Start+k, payload[k*bs:(k+1)*bs])
		}
	}
	return nil
}

// diskHandlers returns the appliers for every frame that moves disk content
// ahead of the freeze — literal data, zero runs, and the dedup and delta
// dialogues, which name themselves and are accepted whenever a source sends
// them. Disk pre-copy, the baselines' disk passes and pre-sync receive
// through the same table.
func (d *destRun) diskHandlers() frameHandlers {
	// Bound once, not per frame; zeros is shared and only read.
	zeros := make([]byte, blockdev.RunBlocks*d.dev.BlockSize())
	write := func(ext bitmap.Extent, payload []byte) error { return d.writeExtent(ext, payload, zeros) }
	data := func(m transport.Message) error {
		ext, err := d.applyData(m, d.lanes, write)
		d.noteRecvBlocks(ext.Start, ext.End())
		if m.Type == transport.MsgZeroExtent {
			d.refBlocks += ext.Count
		}
		return err
	}
	// The dedup and delta frames drain the lane pool first: an advert's index
	// lookups must see every literal already applied (and observed), and the
	// content it writes from this VBD must not race a queued write to its
	// backing block; a signature must summarize content with every queued
	// literal already on the device, and a patch applies against (then
	// overwrites) blocks a queued write may still own.
	return frameHandlers{
		transport.MsgBlockData: data, transport.MsgExtent: data, transport.MsgZeroExtent: data,
		transport.MsgHashAdvert: d.drainOn(d.handleAdvert), transport.MsgDeltaSig: d.drainOn(d.handleDeltaSig),
		transport.MsgDeltaPatch: d.drainOn(d.handleDeltaPatch),
	}
}

// receiveUntilResume is the one receive step ahead of the resume: it applies
// every frame the scheme's handler groups list until the source orders the
// resume — a control frame too, so the pool is drained before acting on it.
func (d *destRun) receiveUntilResume(groups ...frameHandlers) func() error {
	handlers := frameHandlers{}
	for _, g := range groups {
		for typ, fn := range g {
			handlers[typ] = fn
		}
	}
	return func() error {
		if err := d.recvLoop(transport.MsgResume, handlers); err != nil {
			return err
		}
		return d.lanes.drain()
	}
}

// vmHandlers applies the guest's own state: the suspend notice, memory pages
// and the CPU registers. A page frame is a job like a data frame, the page
// number its one-unit extent: a MsgMemPage overwrites the page, a
// MsgMemPageDelta patches it after checking that this side holds the base it
// was cut against. A MsgMemPages batch is parsed whole before it becomes one
// job, which applies it whole (vm.Memory.ApplyBatch checks its bases first).
func (d *destRun) vmHandlers() frameHandlers {
	mem := d.host.VM.Memory()
	received := func(p *destProgress, n int) {
		if p.recvMem != nil && n >= 0 && n < p.recvMem.Len() {
			p.recvMem.Set(n)
		}
	}
	page := func(apply func(n int, data []byte) error) func(transport.Message) error {
		run := func(ext bitmap.Extent, data []byte) error {
			if err := apply(ext.Start, data); err != nil {
				return fmt.Errorf("core: apply page %d: %w", ext.Start, err)
			}
			return nil
		}
		return func(m transport.Message) error {
			n := int(m.Arg)
			d.noteProgress(func(p *destProgress) { received(p, n) })
			return d.lanes.do(job{ext: bitmap.Extent{Start: n, Count: 1}, data: m.Payload, run: run})
		}
	}
	batch := func(m transport.Message) error {
		entries, baseCheck, err := transport.ParseMemPages(m, mem.NumPages(), mem.PageSize())
		if err != nil {
			transport.PutBuf(m.Payload) // rejected before it became a job
			return fmt.Errorf("core: %w", err)
		}
		d.noteProgress(func(p *destProgress) {
			for _, e := range entries {
				received(p, e.Page)
			}
		})
		entry := func(i int) (int, []byte) { return entries[i].Page, entries[i].Body }
		return d.lanes.do(job{data: m.Payload, run: func(bitmap.Extent, []byte) error {
			if err := mem.ApplyBatch(len(entries), entry, baseCheck); err != nil {
				return fmt.Errorf("core: apply MEM_PAGES batch: %w", err)
			}
			return nil
		}})
	}
	return frameHandlers{
		transport.MsgSuspend: d.drainOn(func(transport.Message) error {
			d.ev.suspended()
			return nil
		}),
		transport.MsgMemPage: page(mem.WritePage), transport.MsgMemPageDelta: page(mem.ApplyDelta),
		transport.MsgMemPages: batch,
		transport.MsgCPUState: d.drainOn(func(m transport.Message) error {
			d.host.VM.SetCPU(vm.CPUState{Registers: append([]byte(nil), m.Payload...)})
			return nil
		}),
	}
}

// iterHandlers follows the pre-copy iteration markers, disk and memory: each
// end is announced on the event stream and advances the progress record.
func (d *destRun) iterHandlers() frameHandlers {
	// MsgIterStart/MsgMemIterStart carry the iteration index in Arg; keep it
	// so the end-of-iteration event reports which iteration finished.
	var curIter int
	// Iteration starts reset the transfer cursor for their phase — unless
	// the same iteration restarts after a reconnect, in which case the
	// already-received set keeps accumulating so nothing is counted twice.
	diskIterStart := func(m transport.Message) error {
		curIter = int(m.Arg)
		d.noteProgress(func(p *destProgress) {
			if p.recvDisk == nil || p.recvDiskNum != uint32(curIter) {
				p.recvDiskNum = uint32(curIter)
				p.recvDisk = bitmap.New(d.dev.NumBlocks())
			}
		})
		return nil
	}
	memIterStart := func(m transport.Message) error {
		curIter = int(m.Arg)
		d.noteProgress(func(p *destProgress) {
			if p.recvMem == nil || p.recvMemNum != uint32(curIter) {
				p.recvMemNum = uint32(curIter)
				p.recvMem = bitmap.New(d.host.VM.Memory().NumPages())
			}
		})
		return nil
	}
	iterEnd := func(note func(*destProgress, uint32)) func(transport.Message) error {
		return func(m transport.Message) error {
			d.ev.emit(Event{Kind: EventIterationEnd, Iteration: curIter, Units: int(m.Arg)})
			d.noteProgress(func(p *destProgress) { note(p, uint32(curIter)) })
			return nil
		}
	}
	return frameHandlers{
		transport.MsgIterStart:    d.drainOn(diskIterStart),
		transport.MsgIterEnd:      d.drainOn(iterEnd(func(p *destProgress, it uint32) { p.diskIters = it })),
		transport.MsgMemIterStart: d.drainOn(memIterStart),
		transport.MsgMemIterEnd:   d.drainOn(iterEnd(func(p *destProgress, it uint32) { p.memIters = it })),
	}
}

// bitmapHandler receives the freeze bitmap.
func (d *destRun) bitmapHandler() frameHandlers {
	return frameHandlers{transport.MsgBitmap: d.drainOn(func(m transport.Message) error {
		// Sized by this side's device: a bitmap of any other length would
		// build a post-copy gate that disagrees with the disk behind it.
		bm, err := bitmap.UnmarshalSized(m.Payload, d.dev.NumBlocks())
		if err != nil {
			return fmt.Errorf("core: freeze bitmap: %w", err)
		}
		d.transferred = bm
		return nil
	})}
}

// drainOn wraps a control-frame handler so the lane pool is drained
// before it acts — everything sent before a phase boundary is applied before
// the boundary advances. (transport.IsDataFrame is the same predicate
// Striped stripes by; these are exactly the non-data frames.)
func (d *destRun) drainOn(fn func(transport.Message) error) func(transport.Message) error {
	return func(m transport.Message) error {
		if err := d.lanes.drain(); err != nil {
			return err
		}
		return fn(m)
	}
}

// resumeVM starts the guest on this host and tells the source, ending the
// downtime. A scheme that leaves blocks behind passes the gate the guest's
// I/O must go through from now on.
func (d *destRun) resumeVM(gate *blkback.PostCopyGate) error {
	// CPU was installed by its handler; surface it on the result.
	d.res.CPU, d.res.Gate = d.host.VM.CPU(), gate
	if err := d.host.VM.Resume(); err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	d.ev.resumed()
	// The flag is raised before RESUMED is sent: if that send dies with the
	// link, the reconnect ack must already tell the source the VM runs here.
	d.noteProgress(func(p *destProgress) { p.flags |= destResumed })
	if gate != nil && d.cfg.OnResume != nil {
		d.cfg.OnResume(gate)
	}
	d.postStart = time.Now()
	return d.destSend(transport.Message{Type: transport.MsgResumed})
}

// resumeBehindGate resumes the VM behind a post-copy gate over the freeze
// bitmap; the gate faults blocks in from the source with pull requests.
func (d *destRun) resumeBehindGate() error {
	if d.transferred == nil {
		return fmt.Errorf("core: source resumed without sending a bitmap")
	}
	return d.resumeVM(blkback.NewPostCopyGate(d.dev, d.host.VM.DomainID, d.transferred, func(n int) error {
		return d.destSend(transport.Message{Type: transport.MsgPullRequest, Arg: uint64(n)})
	}))
}

// gateData applies one pushed or pulled data frame through the gate, whose
// internal locking keeps each ReceiveBlock atomic against the resumed guest's
// reads and writes, so the write gate stays correct under the pool's
// concurrency.
func (d *destRun) gateData(pool *lanePool) frameHandlers {
	bs := d.dev.BlockSize()
	receive := func(ext bitmap.Extent, payload []byte) error { // bound once, not per frame
		for k := 0; k < ext.Count; k++ {
			if err := d.res.Gate.ReceiveBlock(ext.Start+k, payload[k*bs:(k+1)*bs]); err != nil {
				return fmt.Errorf("core: apply block %d: %w", ext.Start+k, err)
			}
		}
		return nil
	}
	data := func(m transport.Message) error {
		_, err := d.applyData(m, pool, receive)
		return err
	}
	return frameHandlers{transport.MsgBlockData: data, transport.MsgExtent: data}
}

// postCopyReceive applies pushed/pulled blocks until the source reports push
// completion, by which point every block of the freeze bitmap has arrived or
// been overwritten here, and reports the disk synchronized.
func (d *destRun) postCopyReceive() error {
	if err := d.recvLoop(transport.MsgPushDone, d.gateData(d.lanes)); err != nil {
		return err
	}
	if err := d.lanes.drain(); err != nil {
		return err
	}
	if n := d.res.Gate.RemainingDirty(); n != 0 {
		return fmt.Errorf("core: push done with %d blocks still inconsistent", n)
	}
	d.noteProgress(func(p *destProgress) { p.flags |= destSynced })
	return d.done()
}

// done tells the source the destination no longer depends on it.
func (d *destRun) done() error {
	return d.destSend(transport.Message{Type: transport.MsgDone})
}
