package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
)

// This file implements the three comparison schemes the paper's related-work
// section argues against (§II-B). Each is a phase list over the same source
// and destination steps TPM uses (source.go, dest.go) — nothing but the list
// tells one scheme from another — so benchmarks compare algorithms, not
// implementations:
//
//   - Freeze-and-copy (Internet Suspend/Resume, the Collective): suspend,
//     copy everything, resume. Downtime ≈ total migration time.
//   - On-demand fetching: migrate memory+CPU only, fetch storage blocks
//     lazily forever. Shared-storage-like downtime but an unbounded
//     residual dependency on the source (availability drops to p²).
//   - Delta forward-and-replay (Bradford et al., VEE'07): forward every
//     write during a single full-disk pass, queue the deltas on the
//     destination, and block I/O after resume until the queue replays.
//     Write locality makes a fraction of the deltas redundant — the
//     redundancy the block-bitmap eliminates by construction.

// diskPass sends the whole disk once, paced or not, and books it as the only
// disk iteration.
func (s *sourceRun) diskPass(limited bool) (int, error) {
	start := time.Now()
	sent, bytes, err := s.sendBlocks(allOf(bitmap.NewAllSet(s.dev.NumBlocks())), limited)
	s.rep.DiskIterations = []metrics.Iteration{{Index: 1, Units: sent, Bytes: bytes, Duration: time.Since(start)}}
	return sent, err
}

// --- Freeze-and-copy ---

// MigrateFreezeAndCopySource migrates by suspending the VM for the entire
// transfer: handshake, then the whole disk and memory — one copy and only
// one copy, never paced: the paper caps only pre-copy bandwidth — moved
// inside the freeze. The report's Downtime ≈ TotalTime, the defect that
// motivates live migration.
func MigrateFreezeAndCopySource(cfg Config, host Host, conn transport.Conn) (*metrics.Report, error) {
	s := newSourceRun(cfg, host, conn, "freeze-and-copy")
	return s.run([]phase{
		{PhaseHandshake, s.startup},
		{PhaseFreezeCopy, steps(
			s.suspend,
			func() error { _, err := s.diskPass(false); return err },
			func() error { return s.sendFinalPages(bitmap.NewAllSet(host.VM.Memory().NumPages())) },
			s.sendCPU, s.orderResume, s.awaitResumed, s.waitDone)},
	})
}

// MigrateFreezeAndCopyDest receives a freeze-and-copy migration.
func MigrateFreezeAndCopyDest(cfg Config, host Host, conn transport.Conn) (*DestResult, error) {
	d := newDestRun(cfg, host, conn, "freeze-and-copy-dest")
	return d.run([]phase{
		{PhaseHandshake, d.acceptHandshake},
		{PhaseFreezeCopy, d.receiveUntilResume(d.vmHandlers(), d.diskHandlers())},
		{PhasePostCopy, steps(func() error { return d.resumeVM(nil) }, d.done)},
	})
}

// --- On-demand fetching ---

// MigrateOnDemandSource migrates memory and CPU with pre-copy, ships nothing
// of the disk but an all-dirty bitmap, then serves block pulls until the
// destination releases it — which may be never, the residual-dependency
// defect the paper's push-and-pull avoids. The returned report's
// ResidualDirty is filled by the destination side.
func MigrateOnDemandSource(cfg Config, host Host, conn transport.Conn) (*metrics.Report, error) {
	s := newSourceRun(cfg, host, conn, "on-demand")
	return s.run([]phase{
		{PhaseHandshake, s.startup},
		{PhaseMemPreCopy, s.memPreCopy},
		{PhaseFreezeCopy, steps(
			s.suspend,
			func() error { return s.sendFinalPages(host.VM.Memory().StopTracking()) },
			s.sendCPU,
			func() error { return s.sendBitmap(bitmap.NewAllSet(s.dev.NumBlocks())) },
			s.orderResume)},
		{PhaseOnDemand, s.servePulls},
	})
}

// servePulls is the on-demand pull service: no push, so the dependency
// persists for as long as the destination keeps faulting. The source VM is
// not stopped — it never stops being needed.
func (s *sourceRun) servePulls() error {
	for {
		select {
		case n := <-s.pullCh:
			if err := s.servePull(n); err != nil {
				return err
			}
		case at := <-s.resumedCh:
			s.noteResumed(at)
		case err := <-s.doneCh:
			return err
		}
	}
}

// MigrateOnDemandDest receives an on-demand migration. After resume it keeps
// the gate faulting blocks from the source until release is closed, then
// reports how many blocks were never localized (ResidualDirty — the blocks
// whose loss would take the VM down with the source).
func MigrateOnDemandDest(cfg Config, host Host, conn transport.Conn, release <-chan struct{}) (*DestResult, error) {
	d := newDestRun(cfg, host, conn, "on-demand-dest")
	return d.run([]phase{
		{PhaseHandshake, d.acceptHandshake},
		{PhaseMemPreCopy, d.receiveUntilResume(d.vmHandlers(), d.iterHandlers(), d.bitmapHandler())},
		{PhaseOnDemand, steps(d.resumeBehindGate, func() error { return d.receiveUntilReleased(release) })},
	})
}

// receiveUntilReleased applies pulled blocks until release is closed. The
// receive loop runs in its own goroutine so the release signal is honoured
// even while no traffic flows; no frame ends it (0 is no MsgType), only a
// failure or the connection's close.
func (d *destRun) receiveUntilReleased(release <-chan struct{}) error {
	errCh := make(chan error, 1)
	go func() { errCh <- d.recvLoop(0, d.gateData(nil)) }()
	select {
	case err := <-errCh:
		return err
	case <-release:
		// Fail any read still waiting on a pull: the dependency is being cut.
		d.res.Gate.Close()
		return d.done()
	}
}

// Availability returns the availability of an on-demand-migrated VM that
// depends on two machines of individual availability p: p² (§II-B). With
// TPM's finite dependency the VM returns to availability p once post-copy
// completes.
func Availability(p float64) float64 { return p * p }

// --- Bradford-style delta forward-and-replay ---

// DeltaForwarder intercepts the guest's writes during a delta migration and
// forwards each one to the destination as a delta record, the §IV-A-2
// comparison mechanism. Route the workload through Submit.
type DeltaForwarder struct {
	backend *blkback.Backend
	conn    transport.Conn
	active  atomic.Bool
	deltas  atomic.Int64
}

// NewDeltaForwarder wraps backend, forwarding writes over conn while active.
func NewDeltaForwarder(backend *blkback.Backend, conn transport.Conn) *DeltaForwarder {
	return &DeltaForwarder{backend: backend, conn: conn}
}

// Submit applies the request locally and forwards writes from the tracked
// domain while forwarding is active.
func (f *DeltaForwarder) Submit(req blockdev.Request) error {
	if err := f.backend.Submit(req); err != nil {
		return err
	}
	if req.Op == blockdev.Write && req.Domain == f.backend.Domain() && f.active.Load() {
		m := transport.Message{Type: transport.MsgDelta, Arg: uint64(req.Block), Payload: req.Data}
		if err := f.conn.Send(m); err != nil {
			return fmt.Errorf("core: forward delta: %w", err)
		}
		f.deltas.Add(1)
	}
	return nil
}

// Deltas returns how many write deltas were forwarded.
func (f *DeltaForwarder) Deltas() int64 { return f.deltas.Load() }

// MigrateDeltaSource migrates with Bradford-style forwarding: one full-disk
// pass while fwd forwards every write, then memory pre-copy, freeze, resume.
// The destination replays the queued deltas with guest I/O blocked.
func MigrateDeltaSource(cfg Config, host Host, conn transport.Conn, fwd *DeltaForwarder) (*metrics.Report, error) {
	s := newSourceRun(cfg, host, conn, "delta-forward")
	return s.run([]phase{
		{PhaseHandshake, steps(s.startup, func() error {
			// Forward every write from now on; the full-disk pass races
			// them, and the destination's replay-after-copy resolves the
			// races. Deltas share the engine's metered conn.
			fwd.conn = s.conn
			fwd.active.Store(true)
			return nil
		})},
		{PhaseDeltaForward, func() error {
			if err := s.send(transport.Message{Type: transport.MsgIterStart, Arg: 1}, true); err != nil {
				return err
			}
			// The full pass reads a frozen snapshot when the device is a
			// Volume: every racing write is forwarded as a delta anyway,
			// so a consistent base image plus the delta replay reproduces
			// the live disk exactly.
			restore := s.snapshotForReads()
			sent, err := s.diskPass(true)
			restore()
			if err != nil {
				return err
			}
			return s.send(transport.Message{Type: transport.MsgIterEnd, Arg: uint64(sent)}, true)
		}},
		{PhaseMemPreCopy, s.memPreCopy},
		{PhaseFreezeCopy, steps(
			s.suspend,
			func() error {
				fwd.active.Store(false)
				return s.sendFinalPages(host.VM.Memory().StopTracking())
			},
			s.sendCPU, s.orderResume, s.awaitResumed, s.waitDone)},
	})
}

// MigrateDeltaDest receives a delta migration: it queues forwarded writes,
// applies the queue after the full copy, and reports how long guest I/O
// stayed blocked after resume (IOBlockedTime) plus how many deltas were
// redundant rewrites of the same block — the cost the paper's block-bitmap
// eliminates.
func MigrateDeltaDest(cfg Config, host Host, conn transport.Conn) (*DestResult, error) {
	d := newDestRun(cfg, host, conn, "delta-forward-dest")
	// The queue keeps each MsgDelta frame whole: recvLoop leaves that one
	// payload to its handler, and the replay releases it once applied. The
	// iteration markers bound nothing here — the replay orders every write.
	var queue []transport.Message
	deltaQueue := frameHandlers{
		transport.MsgIterStart: nil, transport.MsgIterEnd: nil,
		transport.MsgMemIterStart: nil, transport.MsgMemIterEnd: nil,
		transport.MsgDelta: func(m transport.Message) error {
			queue = append(queue, m)
			return nil
		},
	}
	replay := func() error {
		// The VM runs, but with I/O blocked (Bradford: "all the write
		// accesses must be blocked before all forwarded deltas are applied").
		replayStart := time.Now()
		rewritten := make(map[uint64]bool)
		for _, m := range queue {
			if err := blockdev.WriteExtent(d.dev, int(m.Arg), 1, m.Payload); err != nil {
				return err
			}
			rewritten[m.Arg] = true
			m.Release()
		}
		d.rep.IOBlockedTime = time.Since(replayStart)
		d.rep.StalePushes = len(queue) - len(rewritten) // redundant deltas play the same role
		if d.cfg.OnResume != nil {
			d.cfg.OnResume(nil) // I/O may flow again; no gate needed
		}
		return nil
	}
	return d.run([]phase{
		{PhaseHandshake, d.acceptHandshake},
		{PhaseDeltaForward, d.receiveUntilResume(d.vmHandlers(), d.diskHandlers(), deltaQueue)},
		{PhaseDeltaReplay, steps(func() error { return d.resumeVM(nil) }, replay, d.done)},
	})
}
