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
	"bbmig/internal/vm"
)

// This file implements the three comparison schemes the paper's related-work
// section argues against (§II-B). Each is a different composition of the
// same phase pipeline and transfer substrate TPM uses (transfer.go), so
// benchmarks compare algorithms, not implementations:
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

// baselineReport seeds a source-side report with the host's geometry.
func baselineReport(scheme string, host Host) *metrics.Report {
	dev := host.Backend.Device()
	mem := host.VM.Memory()
	return &metrics.Report{
		Scheme:      scheme,
		DiskBytes:   blockdev.Capacity(dev),
		MemoryBytes: int64(mem.NumPages()) * int64(mem.PageSize()),
	}
}

// awaitDone consumes destination→source notifications until MsgDone,
// recording the downtime when MsgResumed arrives. serve, when non-nil,
// handles scheme-specific frames (the on-demand pull service).
func awaitDone(t *transfer, rep *metrics.Report, freezeStart *time.Duration, serve frameHandlers) error {
	for {
		m, err := t.conn.Recv()
		if err != nil {
			return err
		}
		t.noteWire()
		switch m.Type {
		case transport.MsgResumed:
			rep.Downtime = t.clk.Now() - *freezeStart
			t.ev.resumed()
		case transport.MsgDone:
			return nil
		case transport.MsgError:
			return fmt.Errorf("core: destination error: %s", m.Payload)
		default:
			fn, ok := serve[m.Type]
			if !ok || fn == nil {
				return fmt.Errorf("core: unexpected %v", m.Type)
			}
			if err := fn(m); err != nil {
				return err
			}
		}
	}
}

// --- Freeze-and-copy ---

// MigrateFreezeAndCopySource migrates by suspending the VM for the entire
// transfer: a pipeline of just handshake and freeze-and-copy, with the whole
// disk and memory moved inside the freeze. The report's Downtime ≈
// TotalTime, the defect that motivates live migration.
func MigrateFreezeAndCopySource(cfg Config, host Host, conn transport.Conn) (*metrics.Report, error) {
	cfg = cfg.withDefaults()
	t, err := newTransfer(cfg, host, conn, "freeze-and-copy", "source")
	if err != nil {
		return baselineReport("freeze-and-copy", host), err
	}
	rep := baselineReport("freeze-and-copy", host)
	dev := host.Backend.Device()
	mem := host.VM.Memory()
	var freezeStart time.Duration

	err = t.runPhases(
		phase{PhaseHandshake, t.handshake},
		phase{PhaseFreezeCopy, func() error {
			if cfg.OnFreeze != nil {
				cfg.OnFreeze()
			}
			if err := host.VM.Suspend(); err != nil {
				return err
			}
			t.ev.suspended()
			freezeStart = t.clk.Now()
			if err := t.send(transport.Message{Type: transport.MsgSuspend}, false); err != nil {
				return err
			}
			// Whole disk, whole memory, CPU — one copy and only one copy.
			// Never paced: the entire transfer is downtime, and the paper
			// caps only pre-copy bandwidth.
			sent, bytes, err := t.sendBlocks(allOf(bitmap.NewAllSet(dev.NumBlocks())), PhaseFreezeCopy, false)
			if err != nil {
				return err
			}
			rep.DiskIterations = []metrics.Iteration{{Index: 1, Units: sent, Bytes: bytes, Duration: t.clk.Now() - freezeStart}}
			nPages, pBytes, err := t.sendPages(allOf(bitmap.NewAllSet(mem.NumPages())), false)
			if err != nil {
				return err
			}
			rep.MemIterations = []metrics.Iteration{{Index: 1, Units: nPages, Bytes: pBytes}}
			cpu := host.VM.CPU()
			if err := t.send(transport.Message{Type: transport.MsgCPUState, Payload: cpu.Registers}, false); err != nil {
				return err
			}
			if err := t.send(transport.Message{Type: transport.MsgResume}, false); err != nil {
				return err
			}
			return awaitDone(t, rep, &freezeStart, nil)
		}},
	)
	t.ev.finish(err)
	if err != nil {
		return rep, err
	}
	rep.TotalTime = t.clk.Now() - t.start
	rep.MigratedBytes = t.meter.BytesSent() + t.meter.BytesReceived()
	host.VM.Stop()
	return rep, nil
}

// MigrateFreezeAndCopyDest receives a freeze-and-copy migration.
func MigrateFreezeAndCopyDest(cfg Config, host Host, conn transport.Conn) (*DestResult, error) {
	cfg = cfg.withDefaults()
	t, err := newTransfer(cfg, host, conn, "freeze-and-copy-dest", "dest")
	if err != nil {
		return &DestResult{Report: &metrics.Report{Scheme: "freeze-and-copy-dest"}}, err
	}
	rep := &metrics.Report{Scheme: "freeze-and-copy-dest"}
	res := &DestResult{Report: rep}

	err = t.runPhases(
		phase{PhaseHandshake, t.acceptHandshake},
		phase{PhaseFreezeCopy, func() error {
			return t.recvLoop(transport.MsgResume, frameHandlers{
				transport.MsgSuspend: func(transport.Message) error {
					t.ev.suspended()
					return nil
				},
				transport.MsgBlockData: t.applyLiteral,
				transport.MsgExtent:    t.applyLiteral,
				transport.MsgMemPage:   t.applyPage,
				transport.MsgCPUState: func(m transport.Message) error {
					res.CPU = vm.CPUState{Registers: append([]byte(nil), m.Payload...)}
					host.VM.SetCPU(res.CPU)
					return nil
				},
			})
		}},
		phase{PhasePostCopy, func() error {
			if err := host.VM.Resume(); err != nil {
				return err
			}
			t.ev.resumed()
			if err := t.send(transport.Message{Type: transport.MsgResumed}, false); err != nil {
				return err
			}
			return t.send(transport.Message{Type: transport.MsgDone}, false)
		}},
	)
	t.ev.finish(err)
	if err != nil {
		_ = t.conn.Send(transport.Message{Type: transport.MsgError, Payload: []byte(err.Error())})
		return res, err
	}
	rep.MigratedBytes = t.meter.BytesSent() + t.meter.BytesReceived()
	return res, nil
}

// --- On-demand fetching ---

// MigrateOnDemandSource migrates memory and CPU with pre-copy, then serves
// block pulls until the destination releases it — which may be never, the
// residual-dependency defect the paper's push-and-pull avoids. The returned
// report's ResidualDirty is filled by the destination side.
func MigrateOnDemandSource(cfg Config, host Host, conn transport.Conn) (*metrics.Report, error) {
	cfg = cfg.withDefaults()
	t, err := newTransfer(cfg, host, conn, "on-demand", "source")
	if err != nil {
		return baselineReport("on-demand", host), err
	}
	rep := baselineReport("on-demand", host)
	dev := host.Backend.Device()
	mem := host.VM.Memory()
	var freezeStart time.Duration

	err = t.runPhases(
		phase{PhaseHandshake, t.handshake},
		phase{PhaseMemPreCopy, func() error {
			if err := t.memPreCopy(rep); err != nil {
				return err
			}
			rep.PreCopyTime = t.clk.Now() - t.start
			return nil
		}},
		phase{PhaseFreezeCopy, func() error {
			if cfg.OnFreeze != nil {
				cfg.OnFreeze()
			}
			freezeStart = t.clk.Now()
			if err := host.VM.Suspend(); err != nil {
				return err
			}
			t.ev.suspended()
			if err := t.send(transport.Message{Type: transport.MsgSuspend}, false); err != nil {
				return err
			}
			if _, _, err := t.sendPages(allOf(mem.SwapDirty()), false); err != nil {
				return err
			}
			cpu := host.VM.CPU()
			if err := t.send(transport.Message{Type: transport.MsgCPUState, Payload: cpu.Registers}, false); err != nil {
				return err
			}
			// Disk state: nothing but an all-dirty bitmap; every block is
			// fetched on demand.
			bm, err := bitmap.NewAllSet(dev.NumBlocks()).MarshalBinary()
			if err != nil {
				return err
			}
			if err := t.send(transport.Message{Type: transport.MsgBitmap, Payload: bm}, false); err != nil {
				return err
			}
			return t.send(transport.Message{Type: transport.MsgResume}, false)
		}},
		phase{PhaseOnDemand, func() error {
			// Serve pulls until released. No push: the dependency persists
			// for as long as the destination keeps faulting.
			buf := make([]byte, dev.BlockSize())
			return awaitDone(t, rep, &freezeStart, frameHandlers{
				transport.MsgPullRequest: func(m transport.Message) error {
					n := int(m.Arg)
					if err := dev.ReadBlock(n, buf); err != nil {
						return err
					}
					if err := t.send(transport.Message{Type: transport.MsgBlockData, Arg: m.Arg, Payload: buf}, false); err != nil {
						return err
					}
					rep.BlocksPulled++
					t.ev.pullServed(n)
					return nil
				},
			})
		}},
	)
	t.ev.finish(err)
	if err != nil {
		return rep, err
	}
	rep.TotalTime = t.clk.Now() - t.start
	rep.MigratedBytes = t.meter.BytesSent() + t.meter.BytesReceived()
	return rep, nil
}

// MigrateOnDemandDest receives an on-demand migration. After resume it keeps
// the gate faulting blocks from the source until release is closed, then
// reports how many blocks were never localized (ResidualDirty — the blocks
// whose loss would take the VM down with the source).
func MigrateOnDemandDest(cfg Config, host Host, conn transport.Conn, release <-chan struct{}) (*DestResult, error) {
	cfg = cfg.withDefaults()
	t, err := newTransfer(cfg, host, conn, "on-demand-dest", "dest")
	if err != nil {
		return &DestResult{Report: &metrics.Report{Scheme: "on-demand-dest"}}, err
	}
	rep := &metrics.Report{Scheme: "on-demand-dest"}
	res := &DestResult{Report: rep}
	mem := host.VM.Memory()
	var transferred *bitmap.Bitmap
	var gate *blkback.PostCopyGate
	var postStart time.Duration
	var memIter int

	err = t.runPhases(
		phase{PhaseHandshake, t.acceptHandshake},
		phase{PhaseMemPreCopy, func() error {
			return t.recvLoop(transport.MsgResume, frameHandlers{
				transport.MsgSuspend: func(transport.Message) error {
					t.ev.suspended()
					return nil
				},
				transport.MsgMemIterStart: func(m transport.Message) error {
					memIter = int(m.Arg)
					return nil
				},
				transport.MsgMemIterEnd: func(m transport.Message) error {
					t.ev.emit(Event{Kind: EventIterationEnd, Iteration: memIter, Units: int(m.Arg)})
					return nil
				},
				transport.MsgMemPage: func(m transport.Message) error {
					return mem.WritePage(int(m.Arg), m.Payload)
				},
				transport.MsgCPUState: func(m transport.Message) error {
					res.CPU = vm.CPUState{Registers: append([]byte(nil), m.Payload...)}
					host.VM.SetCPU(res.CPU)
					return nil
				},
				transport.MsgBitmap: func(m transport.Message) (err error) {
					transferred, err = bitmap.UnmarshalSized(m.Payload, host.Backend.Device().NumBlocks())
					return err
				},
			})
		}},
		phase{PhaseOnDemand, func() error {
			if transferred == nil {
				return fmt.Errorf("core: source resumed without a bitmap")
			}
			gate = blkback.NewPostCopyGate(host.Backend.Device(), host.VM.DomainID, transferred, func(n int) error {
				return t.conn.Send(transport.Message{Type: transport.MsgPullRequest, Arg: uint64(n)})
			}, t.clk)
			res.Gate = gate
			if err := host.VM.Resume(); err != nil {
				return err
			}
			t.ev.resumed()
			if cfg.OnResume != nil {
				cfg.OnResume(gate)
			}
			if err := t.send(transport.Message{Type: transport.MsgResumed}, false); err != nil {
				return err
			}
			postStart = t.clk.Now()

			// Apply pulled blocks until released. Recv runs in its own
			// goroutine so the release signal is honoured even while no
			// traffic flows.
			type inbound struct {
				m   transport.Message
				err error
			}
			msgCh := make(chan inbound)
			go func() {
				for {
					m, err := t.conn.Recv()
					select {
					case msgCh <- inbound{m, err}:
						if err != nil {
							return
						}
					case <-release:
						return
					}
				}
			}()
			for {
				select {
				case in := <-msgCh:
					if in.err != nil {
						return in.err
					}
					t.noteWire()
					switch in.m.Type {
					case transport.MsgBlockData:
						if _, err := t.applyData(in.m, nil, gate.ReceiveBlock); err != nil {
							return err
						}
					case transport.MsgError:
						return fmt.Errorf("core: source error: %s", in.m.Payload)
					default:
						return fmt.Errorf("core: unexpected %v", in.m.Type)
					}
				case <-release:
					// Fail any read still waiting on a pull: the dependency
					// is being cut.
					gate.Close()
					return t.send(transport.Message{Type: transport.MsgDone}, false)
				}
			}
		}},
	)
	t.ev.finish(err)
	if err != nil {
		_ = t.conn.Send(transport.Message{Type: transport.MsgError, Payload: []byte(err.Error())})
		return res, err
	}
	rep.PostCopyTime = t.clk.Now() - postStart
	rep.ResidualDirty = gate.RemainingDirty()
	rep.MigratedBytes = t.meter.BytesSent() + t.meter.BytesReceived()
	gs := gate.Stats()
	rep.BlocksPulled = int(gs.Pulls)
	rep.ReadStallTime = gs.ReadStallTime
	return res, nil
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

	deltas     atomic.Int64
	deltaBytes atomic.Int64
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
		f.deltaBytes.Add(int64(m.FrameSize()))
	}
	return nil
}

// Deltas returns how many write deltas were forwarded.
func (f *DeltaForwarder) Deltas() int64 { return f.deltas.Load() }

// MigrateDeltaSource migrates with Bradford-style forwarding: one full-disk
// pass while fwd forwards every write, then memory pre-copy, freeze, resume.
// The destination replays the queued deltas with guest I/O blocked.
func MigrateDeltaSource(cfg Config, host Host, conn transport.Conn, fwd *DeltaForwarder) (*metrics.Report, error) {
	cfg = cfg.withDefaults()
	t, err := newTransfer(cfg, host, conn, "delta-forward", "source")
	if err != nil {
		return baselineReport("delta-forward", host), err
	}
	rep := baselineReport("delta-forward", host)
	dev := host.Backend.Device()
	mem := host.VM.Memory()
	var freezeStart time.Duration

	err = t.runPhases(
		phase{PhaseHandshake, func() error {
			if err := t.handshake(); err != nil {
				return err
			}
			// Forward every write from now on; the full-disk pass races
			// them, and the destination's replay-after-copy resolves the
			// races. Deltas share the engine's metered conn.
			fwd.conn = t.conn
			fwd.active.Store(true)
			return nil
		}},
		phase{PhaseDeltaForward, func() error {
			iterStart := t.clk.Now()
			if err := t.send(transport.Message{Type: transport.MsgIterStart, Arg: 1}, true); err != nil {
				return err
			}
			// The full pass reads a frozen snapshot when the device is a
			// Volume: every racing write is forwarded as a delta anyway,
			// so a consistent base image plus the delta replay reproduces
			// the live disk exactly.
			restore := t.snapshotForReads()
			sent, bytes, err := t.sendBlocks(allOf(bitmap.NewAllSet(dev.NumBlocks())), PhaseDeltaForward, true)
			restore()
			if err != nil {
				return err
			}
			if err := t.send(transport.Message{Type: transport.MsgIterEnd, Arg: uint64(sent)}, true); err != nil {
				return err
			}
			rep.DiskIterations = []metrics.Iteration{{Index: 1, Units: sent, Bytes: bytes, Duration: t.clk.Now() - iterStart}}
			return nil
		}},
		phase{PhaseMemPreCopy, func() error {
			if err := t.memPreCopy(rep); err != nil {
				return err
			}
			rep.PreCopyTime = t.clk.Now() - t.start
			return nil
		}},
		phase{PhaseFreezeCopy, func() error {
			if cfg.OnFreeze != nil {
				cfg.OnFreeze()
			}
			freezeStart = t.clk.Now()
			if err := host.VM.Suspend(); err != nil {
				return err
			}
			t.ev.suspended()
			fwd.active.Store(false)
			if err := t.send(transport.Message{Type: transport.MsgSuspend}, false); err != nil {
				return err
			}
			if _, _, err := t.sendPages(allOf(mem.SwapDirty()), false); err != nil {
				return err
			}
			cpu := host.VM.CPU()
			if err := t.send(transport.Message{Type: transport.MsgCPUState, Payload: cpu.Registers}, false); err != nil {
				return err
			}
			if err := t.send(transport.Message{Type: transport.MsgResume}, false); err != nil {
				return err
			}
			return awaitDone(t, rep, &freezeStart, nil)
		}},
	)
	t.ev.finish(err)
	if err != nil {
		return rep, err
	}
	rep.TotalTime = t.clk.Now() - t.start
	rep.MigratedBytes = t.meter.BytesSent() + t.meter.BytesReceived()
	host.VM.Stop()
	return rep, nil
}

// MigrateDeltaDest receives a delta migration: it queues forwarded writes,
// applies the queue after the full copy, and reports how long guest I/O
// stayed blocked after resume (IOBlockedTime) plus how many deltas were
// redundant rewrites of the same block — the cost the paper's block-bitmap
// eliminates.
func MigrateDeltaDest(cfg Config, host Host, conn transport.Conn) (*DestResult, error) {
	cfg = cfg.withDefaults()
	t, err := newTransfer(cfg, host, conn, "delta-forward-dest", "dest")
	if err != nil {
		return &DestResult{Report: &metrics.Report{Scheme: "delta-forward-dest"}}, err
	}
	rep := &metrics.Report{Scheme: "delta-forward-dest"}
	res := &DestResult{Report: rep}
	dev := host.Backend.Device()
	type delta struct {
		block int
		data  []byte
	}
	var queue []delta
	seen := make(map[int]int)

	err = t.runPhases(
		phase{PhaseHandshake, t.acceptHandshake},
		phase{PhaseDeltaForward, func() error {
			return t.recvLoop(transport.MsgResume, frameHandlers{
				transport.MsgIterStart:    nil,
				transport.MsgIterEnd:      nil,
				transport.MsgMemIterStart: nil,
				transport.MsgMemIterEnd:   nil,
				transport.MsgSuspend: func(transport.Message) error {
					t.ev.suspended()
					return nil
				},
				transport.MsgBlockData: t.applyLiteral,
				transport.MsgExtent:    t.applyLiteral,
				transport.MsgDelta: func(m transport.Message) error {
					queue = append(queue, delta{block: int(m.Arg), data: m.Payload})
					seen[int(m.Arg)]++
					return nil
				},
				transport.MsgMemPage: t.applyPage,
				transport.MsgCPUState: func(m transport.Message) error {
					res.CPU = vm.CPUState{Registers: append([]byte(nil), m.Payload...)}
					host.VM.SetCPU(res.CPU)
					return nil
				},
			})
		}},
		phase{PhaseDeltaReplay, func() error {
			// Resume, then replay with I/O blocked (Bradford: "all the write
			// accesses must be blocked before all forwarded deltas are
			// applied").
			if err := host.VM.Resume(); err != nil {
				return err
			}
			t.ev.resumed()
			if err := t.send(transport.Message{Type: transport.MsgResumed}, false); err != nil {
				return err
			}
			replayStart := t.clk.Now()
			for _, d := range queue {
				if err := dev.WriteBlock(d.block, d.data); err != nil {
					return err
				}
				transport.PutBuf(d.data) // queued at receive time; consumed here
			}
			rep.IOBlockedTime = t.clk.Now() - replayStart
			redundant := 0
			for _, c := range seen {
				if c > 1 {
					redundant += c - 1
				}
			}
			rep.StalePushes = redundant // redundant deltas play the same role
			if cfg.OnResume != nil {
				cfg.OnResume(nil) // I/O may flow again; no gate needed
			}
			return t.send(transport.Message{Type: transport.MsgDone}, false)
		}},
	)
	t.ev.finish(err)
	if err != nil {
		_ = t.conn.Send(transport.Message{Type: transport.MsgError, Payload: []byte(err.Error())})
		return res, err
	}
	rep.MigratedBytes = t.meter.BytesSent() + t.meter.BytesReceived()
	return res, nil
}
