package core

import (
	"fmt"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
)

// MigrateSource runs the source side of a TPM migration over conn. initial
// selects the blocks to send in the first disk iteration: nil means the
// whole disk (primary migration); a bitmap from a previous migration's
// destination gate selects incremental migration (§V). Ownership of initial
// passes to the engine, which drops from it the blocks it defers to a later
// iteration (see owedCursor).
//
// The migration is a pipeline of named phases — handshake, disk pre-copy,
// memory pre-copy, freeze-and-copy, post-copy — each announced on
// cfg.OnEvent. With Config.MaxRetries and Redial set, the pipeline is
// resumable: progress is checkpointed at phase and iteration boundaries and
// a connection failure re-dials, re-negotiates the session, and re-enters
// the interrupted phase sending only the blocks still owed. On success the
// source VM is Stopped (the paper's finite source dependency: once MsgDone
// arrives, the source machine may be shut down) and the report carries every
// §III-A metric the source can observe.
func MigrateSource(cfg Config, host Host, conn transport.Conn, initial *bitmap.Bitmap) (*metrics.Report, error) {
	cfg = cfg.withDefaults()
	scheme := "TPM"
	if initial != nil {
		scheme = "IM"
	}
	tr, err := newTransfer(cfg, host, conn, scheme, "source")
	if err != nil {
		return &metrics.Report{Scheme: scheme}, err
	}
	s := &sourceRun{transfer: tr}
	rep, err := s.run(initial)
	tr.ev.finish(err)
	if err != nil {
		// best-effort abort notification
		_ = tr.conn.Send(transport.Message{Type: transport.MsgError, Payload: []byte(err.Error())})
		return rep, err
	}
	return rep, nil
}

// Pipeline cursor positions of the source run. The cursor advances as
// phases complete, and is where a resumed session re-enters.
const (
	curHandshake = iota
	curDisk
	curMem
	curFreeze
	curPost
	curDone
)

type sourceRun struct {
	*transfer

	rep     *metrics.Report
	initial *bitmap.Bitmap
	cursor  int
	journal Journal

	// Per-iteration pending bitmaps, kept while the session is resumable.
	// A send that "succeeds" into a socket buffer can still be lost with
	// the link, so the source's own cursor may run ahead of reality; on
	// reconnect the destination's ack is authoritative and the owed set is
	// rebuilt from these (minus what the destination confirms).
	diskIterBMs map[int]*bitmap.Bitmap
	memIterBMs  map[int]*bitmap.Bitmap

	// post-copy coordination (set by the reader goroutine)
	pullCh     chan int
	resumedCh  chan time.Duration // destination resume observed (clock time)
	doneCh     chan error
	readerDone chan struct{}

	// replies is the one reply mailbox: the read loop posts every MsgHashWant
	// and MsgDeltaSig frame here and waitReply takes them out. At most one
	// request — advert, signature or fence — is ever outstanding, so anything
	// else found in it is left over from a connection epoch that died
	// mid-round-trip.
	replies chan transport.Message

	// freeze-and-copy state carried between phases (and across reconnects)
	freezeStart time.Duration
	freezePages *bitmap.Bitmap
	finalDirty  *bitmap.Bitmap
	suspended   bool

	// reconnect-derived shortcuts
	skipPush   bool   // destination reported fully synchronized: don't re-push
	doneSeen   bool   // a clean DONE was consumed while recovering
	epochTried uint32 // highest epoch ever offered; epochs must never repeat
}

func (s *sourceRun) run(initial *bitmap.Bitmap) (*metrics.Report, error) {
	dev := s.host.Backend.Device()
	mem := s.host.VM.Memory()
	rep := &metrics.Report{
		Scheme:      "TPM",
		DiskBytes:   blockdev.Capacity(dev),
		MemoryBytes: int64(mem.NumPages()) * int64(mem.PageSize()),
	}
	if initial != nil {
		rep.Scheme = "IM"
	}
	s.rep = rep
	s.initial = initial
	if s.cfg.MaxRetries > 0 {
		s.journal.Path = s.cfg.JournalPath
		s.ckpt = s.checkpoint
		s.resumeIter = make(map[string]*iterResume)
		s.diskIterBMs = make(map[int]*bitmap.Bitmap)
		s.memIterBMs = make(map[int]*bitmap.Bitmap)
	}

	attempt := 0
	for {
		err := s.runFromCursor()
		if err == nil {
			break
		}
		if !s.canResume(err) {
			return rep, err
		}
		redialed := false
		for attempt < s.cfg.MaxRetries {
			attempt++
			if rerr := s.reconnect(attempt); rerr == nil {
				redialed = true
				break
			}
		}
		if !redialed {
			return rep, fmt.Errorf("core: retries exhausted: %w", err)
		}
	}
	rep.TotalTime = s.clk.Now() - s.start
	rep.MigratedBytes = s.meter.BytesSent() + s.meter.BytesReceived()
	rep.DedupBlocks = s.dedupBlocks
	rep.DeltaBlocks = s.deltaBlocks

	// Finite dependency achieved: the source copy can be shut down.
	s.host.VM.Stop()
	return rep, nil
}

// runFromCursor executes the pipeline from the current cursor position,
// emitting the same phase events a straight-through run produces.
func (s *sourceRun) runFromCursor() error {
	for {
		switch s.cursor {
		case curHandshake:
			if err := s.phaseStep(PhaseHandshake, s.startup); err != nil {
				return err
			}
			s.cursor = curDisk
		case curDisk:
			// Pre-copy: disk first, then memory (§IV-B: "disk storage data
			// are pre-copied before memory copying because memory dirty rate
			// is much higher").
			if err := s.phaseStep(PhaseDiskPreCopy, func() error { return s.diskPreCopy(s.rep, s.initial) }); err != nil {
				return err
			}
			delete(s.resumeIter, PhaseDiskPreCopy)
			s.cursor = curMem
		case curMem:
			err := s.phaseStep(PhaseMemPreCopy, func() error {
				if err := s.memPreCopy(s.rep); err != nil {
					return err
				}
				s.rep.PreCopyTime = s.clk.Now() - s.start
				return nil
			})
			if err != nil {
				return err
			}
			delete(s.resumeIter, PhaseMemPreCopy)
			s.cursor = curFreeze
		case curFreeze:
			if err := s.phaseStep(PhaseFreezeCopy, func() error { return s.freezeAndCopy(s.rep) }); err != nil {
				return err
			}
			s.cursor = curPost
		case curPost:
			if err := s.phaseStep(PhasePostCopy, func() error { return s.postCopy(s.rep) }); err != nil {
				return err
			}
			s.cursor = curDone
		default:
			if s.ckpt != nil {
				_ = s.journal.Checkpoint(JournalState{Token: s.sess.token, Epoch: s.sess.epoch, Phase: "done"})
			}
			return nil
		}
	}
}

// phaseStep runs one named phase with its start/end events.
func (s *sourceRun) phaseStep(name string, fn func() error) error {
	s.ev.phaseStart(name)
	if err := fn(); err != nil {
		return err
	}
	s.ev.phaseEnd(name)
	return nil
}

// startup is the handshake phase body: the HELLO exchange plus starting the
// destination reader before any pull/ack traffic flows.
func (s *sourceRun) startup() error {
	if err := s.handshake(); err != nil {
		return err
	}
	s.pullCh = make(chan int, 1024)
	s.resumedCh = make(chan time.Duration, 1)
	s.doneCh = make(chan error, 1)
	s.replies = make(chan transport.Message, 8)
	s.awaitReply = s.waitReply
	s.startReader()
	return nil
}

// waitReply blocks until the destination's reply to the outstanding request
// arrives: a frame of type typ echoing arg (a fence echo's Arg is
// deltaFenceArg, which a real signature reply can never carry). Anything
// else in the mailbox is stale — superseded with its epoch — and is
// discarded. A destination failure surfaces through doneCh exactly as in
// post-copy.
func (s *sourceRun) waitReply(typ transport.MsgType, arg uint64) ([]byte, error) {
	for {
		select {
		case m := <-s.replies:
			if m.Type != typ || m.Arg != arg {
				m.Release()
				continue
			}
			return m.Payload, nil
		case err := <-s.doneCh:
			if err == nil {
				err = fmt.Errorf("core: destination completed while a %v request was outstanding", typ)
			}
			return nil, err
		}
	}
}

// postReply files m in the mailbox without ever blocking the read loop: when
// the mailbox is full its oldest entry, necessarily stale, makes room.
func (s *sourceRun) postReply(m transport.Message) {
	for {
		select {
		case s.replies <- m:
			return
		default:
		}
		select {
		case stale := <-s.replies:
			stale.Release()
		default:
		}
	}
}

// dropReplies empties the mailbox and the refusal list of a dead epoch: the
// next runFromCursor re-requests whatever it re-sends (the destination stages
// against the newest advert only), and a refused extent was never confirmed
// received, so the owed-set reconciliation re-sends it anyway.
func (s *sourceRun) dropReplies() {
	for {
		select {
		case stale := <-s.replies:
			stale.Release()
			continue
		default:
		}
		break
	}
	s.deltaMu.Lock()
	s.deltaNaks = nil
	s.deltaMu.Unlock()
	s.deltaPending = 0
}

func (s *sourceRun) startReader() {
	done := make(chan struct{})
	s.readerDone = done
	go s.readLoop(done)
}

// canResume reports whether err is a connection failure a negotiated
// resumable session can ride out.
func (s *sourceRun) canResume(err error) bool {
	return s.cfg.MaxRetries > 0 && s.cfg.Redial != nil &&
		s.sess.isResumable() && transport.IsConnError(err)
}

// checkpoint is the preCopyLoop hook: it records each iteration's pending
// set for reconnect reconciliation and mirrors the owed-block view to the
// journal. The journal's pending bitmap is always in disk blocks — the unit
// that survives a restart — so a cold resume can seed an incremental
// migration from it.
func (s *sourceRun) checkpoint(phase string, iter int, pending *bitmap.Bitmap) {
	switch phase {
	case PhaseDiskPreCopy:
		s.diskIterBMs[iter] = pending
	case PhaseMemPreCopy:
		s.memIterBMs[iter] = pending
	}
	st := JournalState{Token: s.sess.token, Epoch: s.sess.epoch, Phase: phase, Iter: iter}
	switch phase {
	case PhaseDiskPreCopy:
		st.Pending = pending.Clone()
		st.Pending.Union(s.host.Backend.DirtySnapshot())
	case PhaseMemPreCopy:
		st.Pending = s.host.Backend.DirtySnapshot()
	}
	_ = s.journal.Checkpoint(st)
}

// backoffFor doubles the base backoff per attempt, capped at 32x.
func (s *sourceRun) backoffFor(attempt int) time.Duration {
	shift := attempt - 1
	if shift > 5 {
		shift = 5
	}
	return s.cfg.RetryBackoff << shift
}

// reconnect tears down the dead link, re-dials, runs the session-resume
// exchange, and re-positions the pipeline from the destination's progress
// record so the next runFromCursor sends only what is still owed.
func (s *sourceRun) reconnect(attempt int) error {
	// Quiesce: kill the dead link so the reader unblocks, wait for it to
	// exit, and consume any failure it reported (a clean DONE is latched —
	// the migration may have completed under us).
	if s.swap != nil {
		s.swap.Current().Close()
	}
	if s.readerDone != nil {
		<-s.readerDone
		s.readerDone = nil
	}
	select {
	case err := <-s.doneCh:
		if err == nil {
			s.doneSeen = true
		}
	default:
	}
	s.dropReplies()

	s.clk.Sleep(s.backoffFor(attempt))
	conn, err := s.cfg.Redial()
	if err != nil {
		return err
	}
	// Epochs advance per ATTEMPT, not per adopted session: if the
	// destination's ack was lost in flight, its lastEpoch moved while ours
	// did not, and re-offering the same epoch would be rejected as stale
	// forever.
	epoch := s.sess.epoch
	if s.epochTried > epoch {
		epoch = s.epochTried
	}
	epoch++
	s.epochTried = epoch
	if err := conn.Send(transport.ResumeFrame(s.sess.token, epoch)); err != nil {
		conn.Close()
		return err
	}
	// Watchdog: nothing in Conn carries a deadline, and a destination that
	// died (or whose listener accepted us into a backlog nobody serves)
	// would otherwise hang this Recv forever. Real time on purpose — this
	// guards against a hung peer, not a simulated one.
	watchdog := time.AfterFunc(resumeAckTimeout, func() { conn.Close() })
	ack, err := conn.Recv()
	watchdog.Stop()
	if err != nil {
		conn.Close()
		return err
	}
	if ack.Type != transport.MsgSessionAck || uint32(ack.Arg) != epoch {
		conn.Close()
		return fmt.Errorf("core: bad session ack (%v, epoch %d)", ack.Type, ack.Arg)
	}
	prog, err := parseDestProgress(ack.Payload, s.dev.NumBlocks(), s.host.VM.Memory().NumPages())
	if err != nil {
		conn.Close()
		return err
	}
	s.swap.Rebind(conn)
	s.sess.mu.Lock()
	s.sess.epoch = epoch
	s.sess.gen++
	s.sess.mu.Unlock()
	s.rep.Retries++
	s.startReader()
	s.applyDestProgress(prog)
	s.ev.reconnected(int(epoch))
	return nil
}

// owedUnits rebuilds the set a phase still owes the destination: the union
// of every iteration the source started beyond what the destination reports
// fully received, minus the destination's transfer cursor. The cursor is
// subtracted from its own iteration's bitmap BEFORE unioning later ones: a
// block the destination confirms for iteration k can still be owed by
// iteration k+1, whose newer copy was swapped out of the dirty tracker and
// exists nowhere else.
func owedUnits(iterBMs map[int]*bitmap.Bitmap, destIters uint32, recvNum uint32, recv *bitmap.Bitmap) *bitmap.Bitmap {
	var owed *bitmap.Bitmap
	for iter, bm := range iterBMs {
		if iter <= int(destIters) {
			continue
		}
		cur := bm
		if recv != nil && uint32(iter) == recvNum && recvNum == destIters+1 && recv.Len() == bm.Len() {
			cur = bm.Clone()
			cur.Subtract(recv)
		}
		if owed == nil {
			owed = cur.Clone()
		} else {
			owed.Union(cur)
		}
	}
	return owed
}

// applyDestProgress re-positions the pipeline from the destination's ack.
// The destination is authoritative: sends that "succeeded" into a socket
// buffer may have died with the link, so the source's own cursor can be
// ahead of reality. The rules, earliest-need first:
//
//   - destination VM resumed/synced → post-copy only (its receive loops
//     have left pre-copy and would reject those frames);
//   - disk iterations it hasn't confirmed → rewind to disk pre-copy,
//     re-sending exactly the owed blocks;
//   - memory iterations it hasn't confirmed → (also) re-enter memory
//     pre-copy at the owed pages;
//   - freeze content unconfirmed (not resumed) → re-enter freeze-and-copy,
//     whose captured sets re-send verbatim.
func (s *sourceRun) applyDestProgress(p destProgress) {
	s.resumeIter = make(map[string]*iterResume)
	if p.flags&destResumed != 0 {
		if s.cursor < curPost {
			// The freeze phase completed even though the RESUMED
			// notification was lost with the link.
			if s.rep.Downtime == 0 {
				s.rep.Downtime = s.clk.Now() - s.freezeStart
			}
			s.ev.resumed()
			s.cursor = curPost
		}
		if p.flags&destSynced != 0 {
			// Every block is consistent; pushing again would address a
			// receive loop that has already exited. Wait for DONE only.
			s.skipPush = true
		}
		return
	}
	diskStarted := len(s.diskIterBMs) > 0
	memStarted := len(s.memIterBMs) > 0
	// Confirmed iterations can never be owed again: drop their bitmaps.
	// (Pruning only against confirmations — never against the source's own
	// send progress — because small iterations can sit wholly inside
	// socket buffers, letting the destination lag several iterations.)
	for iter := range s.diskIterBMs {
		if iter <= int(p.diskIters) {
			delete(s.diskIterBMs, iter)
		}
	}
	for iter := range s.memIterBMs {
		if iter <= int(p.memIters) {
			delete(s.memIterBMs, iter)
		}
	}
	// Pre-copy reconciliation. A phase the source has entered always has at
	// least one checkpointed iteration, so an empty map means "never
	// started" and the normal cursor path handles it.
	origCursor := s.cursor
	diskRewound := false
	if diskStarted && s.cursor >= curDisk {
		if owed := owedUnits(s.diskIterBMs, p.diskIters, p.recvDiskNum, p.recvDisk); owed != nil && owed.Any() {
			s.resumeIter[PhaseDiskPreCopy] = &iterResume{iter: int(p.diskIters) + 1, pending: owed}
			s.cursor = curDisk
			diskRewound = origCursor > curDisk
		} else if s.cursor == curDisk {
			// Mid-phase failure with nothing owed: re-enter at the next
			// iteration rather than restarting the phase from scratch.
			empty := bitmap.New(s.host.Backend.Device().NumBlocks())
			s.resumeIter[PhaseDiskPreCopy] = &iterResume{iter: int(p.diskIters) + 1, pending: empty}
		}
	}
	if memStarted && origCursor >= curMem {
		owed := owedUnits(s.memIterBMs, p.memIters, p.recvMemNum, p.recvMem)
		// Re-enter the memory phase only when something is owed, the
		// failure struck mid-phase, or a disk rewind will re-run the
		// pipeline through it anyway — never drag a clean freeze/post
		// cursor back through a no-op iteration (which would pollute the
		// iteration tables and PreCopyTime).
		if (owed != nil && owed.Any()) || origCursor == curMem || diskRewound {
			if owed == nil {
				owed = bitmap.New(s.host.VM.Memory().NumPages())
			}
			s.resumeIter[PhaseMemPreCopy] = &iterResume{iter: int(p.memIters) + 1, pending: owed}
			if s.cursor > curMem {
				s.cursor = curMem
			}
		}
	}
}

// freezeAndCopy suspends the VM and transfers the final dirty pages, CPU
// state, and the block-bitmap of all inconsistent blocks — the only disk
// state transferred during downtime (§IV-A-3). The phase ends when the
// destination reports the VM running, which bounds the measured downtime.
// On re-entry after a reconnect the VM is already suspended and the captured
// page/bitmap sets are re-sent verbatim; the destination applies duplicates
// idempotently.
func (s *sourceRun) freezeAndCopy(rep *metrics.Report) error {
	mem := s.host.VM.Memory()
	if !s.suspended {
		if s.cfg.OnFreeze != nil {
			s.cfg.OnFreeze()
		}
		s.freezeStart = s.clk.Now()
		if err := s.host.VM.Suspend(); err != nil {
			return fmt.Errorf("core: freeze: %w", err)
		}
		s.suspended = true
		s.ev.suspended()
	}
	if err := s.send(transport.Message{Type: transport.MsgSuspend}, false); err != nil {
		return err
	}
	// Remaining dirty memory pages and CPU state. The sets are captured
	// once — the VM is frozen, so they cannot grow — and retained for
	// re-sending if the link dies mid-phase.
	if s.freezePages == nil {
		s.freezePages = mem.SwapDirty()
		s.host.Backend.StopTracking()
		s.finalDirty = s.host.Backend.SwapDirty()
		if s.ckpt != nil {
			_ = s.journal.Checkpoint(JournalState{
				Token: s.sess.token, Epoch: s.sess.epoch,
				Phase: PhaseFreezeCopy, Pending: s.finalDirty,
			})
		}
	}
	nPages, pageBytes, err := s.sendPages(allOf(s.freezePages), false)
	if err != nil {
		return err
	}
	rep.MemIterations = append(rep.MemIterations, metrics.Iteration{
		Index: len(rep.MemIterations) + 1, Units: nPages, Bytes: pageBytes,
		Duration: s.clk.Now() - s.freezeStart,
	})
	cpu := s.host.VM.CPU()
	if err := s.send(transport.Message{Type: transport.MsgCPUState, Payload: cpu.Registers}, false); err != nil {
		return err
	}
	// The block-bitmap of all inconsistent blocks.
	bmBytes, err := s.finalDirty.MarshalBinary()
	if err != nil {
		return err
	}
	if err := s.send(transport.Message{Type: transport.MsgBitmap, Payload: bmBytes}, false); err != nil {
		return err
	}
	if err := s.send(transport.Message{Type: transport.MsgResume}, false); err != nil {
		return err
	}
	// Downtime ends when the destination reports the VM running.
	select {
	case at := <-s.resumedCh:
		rep.Downtime = at - s.freezeStart
		s.ev.resumed()
	case err := <-s.doneCh:
		if err == nil {
			err = fmt.Errorf("core: connection closed before resume")
		}
		return err
	}
	return nil
}

// postCopy pushes all blocks in the freeze bitmap, serving pulls
// preferentially (§IV-A-3), then waits for the destination's
// fully-synchronized acknowledgement. Re-entry after a reconnect re-pushes
// the whole freeze set: frames in flight when the link died are
// unconfirmed, and the destination gate drops duplicates as stale.
func (s *sourceRun) postCopy(rep *metrics.Report) error {
	postStart := s.clk.Now()
	if s.ckpt != nil {
		_ = s.journal.Checkpoint(JournalState{
			Token: s.sess.token, Epoch: s.sess.epoch,
			Phase: PhasePostCopy, Pending: s.finalDirty,
		})
	}
	if s.doneSeen {
		rep.PostCopyTime = s.clk.Now() - postStart
		return nil
	}
	if !s.skipPush {
		if err := s.pushBlocks(rep, s.finalDirty); err != nil {
			return err
		}
	}
	if err := <-s.doneCh; err != nil {
		return err
	}
	rep.PostCopyTime = s.clk.Now() - postStart
	return nil
}

// pushBlocks pushes every block of bm to the destination, serving queued
// pull requests first ("sends the pulled block preferentially"). Pull
// replies always travel as single blocks; the background push coalesces the
// remaining set into extents at the policy's live limit.
func (s *sourceRun) pushBlocks(rep *metrics.Report, bm *bitmap.Bitmap) error {
	dev := s.srcDev
	bs := dev.BlockSize()
	var buf []byte
	defer func() { transport.PutBuf(buf) }()
	sendExtent := func(e bitmap.Extent) error {
		if need := e.Count * bs; cap(buf) < need {
			transport.PutBuf(buf)
			buf = transport.GetBuf(need)
		}
		data := buf[:e.Count*bs]
		if err := readExtent(dev, e, data); err != nil {
			return err
		}
		return s.send(extentMessage(e, data), false)
	}
	remaining := bm.Clone()
	for {
		// Serve every queued pull first.
		for {
			select {
			case n := <-s.pullCh:
				if remaining.Test(n) { // not yet pushed
					if err := sendExtent(bitmap.Extent{Start: n, Count: 1}); err != nil {
						return err
					}
					remaining.Clear(n)
					rep.BlocksPulled++
					s.ev.pullServed(n)
				}
				continue
			default:
			}
			break
		}
		ext := remaining.NextExtent(0, s.extentBlocks(PhasePostCopy))
		if ext.Count == 0 {
			break
		}
		if err := sendExtent(ext); err != nil {
			return err
		}
		remaining.ClearRange(ext.Start, ext.End())
		rep.BlocksPushed += ext.Count
	}
	return s.send(transport.Message{Type: transport.MsgPushDone}, false)
}

// readLoop consumes destination → source messages for one connection epoch;
// it exits (closing done) on the first error so a reconnect can swap the
// link underneath without a stale reader stealing the new epoch's frames.
func (s *sourceRun) readLoop(done chan struct{}) {
	defer close(done)
	for {
		m, err := s.conn.Recv()
		if err != nil {
			s.doneCh <- fmt.Errorf("core: source read loop: %w", err)
			return
		}
		switch m.Type {
		case transport.MsgPullRequest:
			s.pullCh <- int(m.Arg)
		case transport.MsgHashWant:
			if !s.cfg.Dedup {
				s.doneCh <- fmt.Errorf("core: HASH_WANT on a session without dedup")
				return
			}
			s.postReply(m)
		case transport.MsgDeltaSig:
			if !s.cfg.Delta {
				s.doneCh <- fmt.Errorf("core: DELTA_SIG on a session without delta")
				return
			}
			s.postReply(m)
		case transport.MsgDeltaPatch:
			// A refusal: the destination could not verify a patch and wants
			// the extent literally. Collected — never dropped — until the
			// pass's fence re-sends the content.
			if !s.cfg.Delta {
				s.doneCh <- fmt.Errorf("core: DELTA_PATCH refusal on a session without delta")
				return
			}
			s.deltaMu.Lock()
			s.deltaNaks = append(s.deltaNaks, m.Arg)
			s.deltaMu.Unlock()
			m.Release()
		case transport.MsgResumed:
			// Non-blocking: a retried RESUMED after a reconnect may duplicate
			// one already latched.
			select {
			case s.resumedCh <- s.clk.Now():
			default:
			}
		case transport.MsgDone:
			s.doneCh <- nil
			return
		case transport.MsgError:
			s.doneCh <- fmt.Errorf("core: destination error: %s", m.Payload)
			return
		default:
			s.doneCh <- fmt.Errorf("core: unexpected message %v from destination", m.Type)
			return
		}
	}
}
