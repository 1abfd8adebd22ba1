package core

import (
	"fmt"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
)

// MigrateSource runs the source side of a TPM migration over conn. initial
// selects the blocks to send in the first disk iteration: nil means the
// whole disk (primary migration); a bitmap from a previous migration's
// destination gate selects incremental migration (§V). Ownership of initial
// passes to the engine, which drops from it the blocks it defers to a later
// iteration (see owedCursor).
//
// The migration is a list of named phases — handshake, disk pre-copy,
// memory pre-copy, freeze-and-copy, post-copy — each announced on
// cfg.OnEvent. With Config.MaxRetries and Redial set, the list is
// resumable: progress is checkpointed at phase and iteration boundaries and
// a connection failure re-dials, re-negotiates the session, and re-enters
// the interrupted phase sending only the blocks still owed. On success the
// source VM is Stopped (the paper's finite source dependency: once MsgDone
// arrives, the source machine may be shut down) and the report carries every
// §III-A metric the source can observe.
func MigrateSource(cfg Config, host Host, conn transport.Conn, initial *bitmap.Bitmap) (*metrics.Report, error) {
	scheme := "TPM"
	if initial != nil {
		scheme = "IM"
	}
	s := newSourceRun(cfg, host, conn, scheme)
	return s.run(s.tpmPhases(initial))
}

// Cursor positions of the TPM/IM phase list: the indices a resumed session
// re-enters at.
const (
	curHandshake = iota
	curDisk
	curMem
	curFreeze
	curPost
)

// tpmPhases is the TPM/IM scheme. It is the one list that arms the reply
// mailbox (dedup and delta ride it) and, with MaxRetries, the checkpoints the
// retry loop in run rewinds to; every other scheme runs literal and fail-fast.
func (s *sourceRun) tpmPhases(initial *bitmap.Bitmap) []phase {
	s.awaitReply = s.waitReply
	if s.cfg.MaxRetries > 0 {
		s.journal.Path = s.cfg.JournalPath
		s.ckpt = s.checkpoint
		s.resumeIter = make(map[string]*iterResume)
		s.diskIterBMs = make(map[int]*bitmap.Bitmap)
		s.memIterBMs = make(map[int]*bitmap.Bitmap)
	}
	return []phase{
		curHandshake: {PhaseHandshake, s.startup},
		// Pre-copy: disk first, then memory (§IV-B: "disk storage data are
		// pre-copied before memory copying because memory dirty rate is much
		// higher").
		curDisk:   {PhaseDiskPreCopy, func() error { return s.diskPreCopy(initial) }},
		curMem:    {PhaseMemPreCopy, s.memPreCopy},
		curFreeze: {PhaseFreezeCopy, s.freezeAndCopy},
		curPost:   {PhasePostCopy, s.postCopy},
	}
}

// sourceRun is the source endpoint of every scheme: the steps below, each
// written once, chained by a scheme's phase list.
type sourceRun struct {
	*transfer

	cursor  int // index into the phase list; where a resumed session re-enters
	journal Journal

	// Per-iteration pending bitmaps, kept while the session is resumable.
	// A send that "succeeds" into a socket buffer can still be lost with
	// the link, so the source's own cursor may run ahead of reality; on
	// reconnect the destination's ack is authoritative and the owed set is
	// rebuilt from these (minus what the destination confirms).
	diskIterBMs map[int]*bitmap.Bitmap
	memIterBMs  map[int]*bitmap.Bitmap

	// destination → source mailboxes, filled by the one reader goroutine
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

// newSourceRun assembles the source endpoint of scheme over conn.
func newSourceRun(cfg Config, host Host, conn transport.Conn, scheme string) *sourceRun {
	tr := newTransfer(cfg.withDefaults(), host, conn, scheme, "source")
	mem := host.VM.Memory()
	tr.rep.DiskBytes = blockdev.Capacity(host.Backend.Device())
	tr.rep.MemoryBytes = int64(mem.NumPages()) * int64(mem.PageSize())
	tr.pages = vm.NewBaseBook(mem, tr.cfg.MemDirtyThreshold)
	return &sourceRun{transfer: tr}
}

// run executes the scheme's phase list and closes the report. A list that
// armed checkpoints (tpmPhases) rides out connection failures: each one
// re-dials, and the list re-enters at the cursor reconnect left behind.
//
// Memory dirty logging runs from here, not from memory pre-copy: what it
// collects while everything else is sent is the evidence of which pages are
// hot. It is stopped and drained at the freeze capture and — so an aborted
// attempt leaves no stale dirt for the next one to read as evidence — on
// every exit; disk tracking, which the freeze stops, on a failed one (the next
// attempt's first iteration would skip a stale dirty block as re-dirtied).
func (s *sourceRun) run(phases []phase) (*metrics.Report, error) {
	mem := s.host.VM.Memory()
	mem.StartTracking()
	defer func() {
		mem.StopTracking()
		s.pages.Drop()
	}()
	err := s.runPhases(phases, &s.cursor)
	for attempt := 0; err != nil && s.canResume(err); err = s.runPhases(phases, &s.cursor) {
		redialed := false
		for !redialed && attempt < s.cfg.MaxRetries {
			attempt++
			redialed = s.reconnect(attempt) == nil
		}
		if !redialed {
			err = fmt.Errorf("core: retries exhausted: %w", err)
			break
		}
	}
	if err != nil {
		s.host.Backend.StopTracking()
		s.host.Backend.SwapDirty()
	} else if s.ckpt != nil {
		_ = s.journal.Checkpoint(JournalState{Token: s.sess.token, Epoch: s.sess.epoch, Phase: "done"})
	}
	s.rep.DedupBlocks = s.dedupBlocks
	s.rep.DeltaBlocks = s.deltaBlocks
	return s.rep, s.finish(err)
}

// startup is the handshake phase body: the HELLO exchange plus starting the
// one destination reader before any pull/ack traffic flows.
func (s *sourceRun) startup() error {
	if err := s.handshake(); err != nil {
		return err
	}
	s.pullCh = make(chan int, 1024)
	s.resumedCh = make(chan time.Duration, 1)
	s.doneCh = make(chan error, 1)
	s.replies = make(chan transport.Message, 8)
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
// re-entered phase re-requests whatever it re-sends (the destination stages
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
// resumable session can ride out. Only a list that armed checkpoints has
// anything to re-enter from: every other scheme stays fail-fast.
func (s *sourceRun) canResume(err error) bool {
	return s.ckpt != nil && s.cfg.Redial != nil &&
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
// record so the re-entered phase list sends only what is still owed.
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
	s.pages.Drop() // frames in flight are unconfirmed: everything owed from here on is literal

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

// suspend freezes the guest — once: re-entry after a reconnect finds it
// frozen — and tells the destination.
func (s *sourceRun) suspend() error {
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
	return s.send(transport.Message{Type: transport.MsgSuspend}, false)
}

// sendFinalPages sends the pages of set inside the freeze, unpaced, and books
// them as the last memory iteration. A page that has a base travels as the
// words the guest changed since.
func (s *sourceRun) sendFinalPages(set *bitmap.Bitmap) error {
	nPages, pageBytes, err := s.sendPages(allOf(set), false)
	s.rep.MemIterations = append(s.rep.MemIterations, metrics.Iteration{
		Index: len(s.rep.MemIterations) + 1, Units: nPages, Deltas: s.pages.TakeDeltas(), Bytes: pageBytes,
		Duration: s.clk.Now() - s.freezeStart,
	})
	return err
}

// sendCPU sends the frozen guest's registers.
func (s *sourceRun) sendCPU() error {
	return s.send(transport.Message{Type: transport.MsgCPUState, Payload: s.host.VM.CPU().Registers}, false)
}

// sendBitmap sends the block-bitmap of all blocks the destination must treat
// as inconsistent after resume.
func (s *sourceRun) sendBitmap(bm *bitmap.Bitmap) error {
	payload, err := bm.MarshalBinary()
	if err != nil {
		return err
	}
	return s.send(transport.Message{Type: transport.MsgBitmap, Payload: payload}, false)
}

// orderResume tells the destination it holds everything the guest needs to
// run.
func (s *sourceRun) orderResume() error {
	return s.send(transport.Message{Type: transport.MsgResume}, false)
}

// awaitResumed blocks until the destination reports the VM running, which
// ends the measured downtime.
func (s *sourceRun) awaitResumed() error {
	select {
	case at := <-s.resumedCh:
		s.noteResumed(at)
		return nil
	case err := <-s.doneCh:
		if err != nil {
			return err
		}
		// The read loop latches RESUMED before the DONE that follows it on
		// the wire; with both ready the select above may pick either.
		s.doneSeen = true
		select {
		case at := <-s.resumedCh:
			s.noteResumed(at)
			return nil
		default:
			return fmt.Errorf("core: connection closed before resume")
		}
	}
}

// noteResumed books the end of the downtime at clock time at.
func (s *sourceRun) noteResumed(at time.Duration) {
	s.rep.Downtime = at - s.freezeStart
	s.ev.resumed()
}

// waitDone blocks until the destination reports itself complete. That is the
// finite dependency achieved: the source copy can be shut down.
func (s *sourceRun) waitDone() error {
	if !s.doneSeen {
		if err := <-s.doneCh; err != nil {
			return err
		}
	}
	s.host.VM.Stop()
	return nil
}

// freezeAndCopy suspends the VM and transfers the final dirty pages, CPU
// state, and the block-bitmap of all inconsistent blocks — the only disk
// state transferred during downtime (§IV-A-3). The phase ends when the
// destination reports the VM running. On re-entry after a reconnect the
// captured page/bitmap sets are re-sent verbatim; the destination applies
// duplicates idempotently.
func (s *sourceRun) freezeAndCopy() error {
	if err := s.suspend(); err != nil {
		return err
	}
	// The sets are captured once — the VM is frozen, so they cannot grow —
	// and retained for re-sending if the link dies mid-phase.
	if s.freezePages == nil {
		s.freezePages = s.host.VM.Memory().StopTracking()
		s.host.Backend.StopTracking()
		s.finalDirty = s.host.Backend.SwapDirty()
		s.checkpointFreeze(PhaseFreezeCopy)
	}
	return steps(
		func() error { return s.sendFinalPages(s.freezePages) },
		s.sendCPU,
		func() error { return s.sendBitmap(s.finalDirty) },
		s.orderResume, s.awaitResumed)()
}

// checkpointFreeze journals the freeze bitmap as what a cold resume owes.
func (s *sourceRun) checkpointFreeze(phase string) {
	if s.ckpt != nil {
		_ = s.journal.Checkpoint(JournalState{Token: s.sess.token, Epoch: s.sess.epoch, Phase: phase, Pending: s.finalDirty})
	}
}

// postCopy pushes all blocks in the freeze bitmap, serving pulls
// preferentially (§IV-A-3), then waits for the destination's
// fully-synchronized acknowledgement. Re-entry after a reconnect re-pushes
// the whole freeze set: frames in flight when the link died are
// unconfirmed, and the destination gate drops duplicates as stale.
func (s *sourceRun) postCopy() error {
	postStart := s.clk.Now()
	s.checkpointFreeze(PhasePostCopy)
	if !s.doneSeen && !s.skipPush {
		if err := s.pushBlocks(s.finalDirty); err != nil {
			return err
		}
	}
	if err := s.waitDone(); err != nil {
		return err
	}
	s.rep.PostCopyTime = s.clk.Now() - postStart
	return nil
}

// servePull answers one pull request. Pull replies always travel as single
// blocks, unpaced.
func (s *sourceRun) servePull(n int) error {
	if _, err := s.sendRead(bitmap.Extent{Start: n, Count: 1}, false); err != nil {
		return err
	}
	s.rep.BlocksPulled++
	s.ev.pullServed(n)
	return nil
}

// pushBlocks pushes every block of bm, serving queued pulls first ("sends the
// pulled block preferentially") and coalescing the rest into extents at the
// policy's live limit; a pull only clears, so each scan resumes at the last cut.
func (s *sourceRun) pushBlocks(bm *bitmap.Bitmap) error {
	remaining := bm.Clone()
	for next := 0; ; {
		select {
		case n := <-s.pullCh:
			if remaining.Test(n) { // not yet pushed
				if err := s.servePull(n); err != nil {
					return err
				}
				remaining.Clear(n)
			}
			continue
		default:
		}
		ext := remaining.NextExtent(next, s.extentBlocks())
		if ext.Count == 0 {
			break
		}
		if _, err := s.sendRead(ext, false); err != nil {
			return err
		}
		remaining.ClearRange(ext.Start, ext.End())
		next = ext.End()
		s.rep.BlocksPushed += ext.Count
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
		// A reply to a request this source never makes comes from a lying peer.
		if (m.Type == transport.MsgHashWant && !s.cfg.Dedup) ||
			((m.Type == transport.MsgDeltaSig || m.Type == transport.MsgDeltaPatch) && !s.cfg.Delta) {
			s.doneCh <- fmt.Errorf("core: %v answers a request this source never made", m.Type)
			return
		}
		switch m.Type {
		case transport.MsgPullRequest:
			// Checked here, once, for every consumer of pullCh: a block number
			// past the device would index the push set out of range.
			if m.Arg >= uint64(s.dev.NumBlocks()) {
				s.doneCh <- fmt.Errorf("core: pull request for block %d outside %d-block VBD", m.Arg, s.dev.NumBlocks())
				return
			}
			s.pullCh <- int(m.Arg)
		case transport.MsgHashWant, transport.MsgDeltaSig:
			s.postReply(m)
		case transport.MsgDeltaPatch:
			// A refusal: the destination could not verify a patch and wants
			// the extent literally. Collected — never dropped — until the
			// pass's fence re-sends the content.
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
