package core

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/transport"
	"bbmig/internal/workload"
)

// writeRaw replaces path's contents without the atomic-save discipline,
// simulating torn or corrupt on-disk state.
func writeRaw(t *testing.T, path string, data []byte) error {
	t.Helper()
	return os.WriteFile(path, data, 0o644)
}

// pipeRelinker wires a resumable migration's two reconnect callbacks over
// in-process pipes, or pair's links when set: the source's Redial mints a
// fresh pair (optionally fault-wrapped per epoch by inj) and the
// destination's WaitReconnect receives the peer end and validates the resume
// frame, exactly as a TCP accept loop would via transport.AcceptResume.
type pipeRelinker struct {
	ch   chan transport.Conn
	inj  *transport.Injector
	pair func() (transport.Conn, transport.Conn)
}

func newPipeRelinker(inj *transport.Injector) *pipeRelinker {
	return &pipeRelinker{ch: make(chan transport.Conn, 4), inj: inj}
}

func (r *pipeRelinker) redial() (transport.Conn, error) {
	var pa, pb transport.Conn
	if r.pair != nil {
		pa, pb = r.pair()
	} else {
		pa, pb = transport.NewPipe(64)
	}
	r.ch <- pb
	if r.inj != nil {
		return r.inj.Wrap(pa), nil
	}
	return pa, nil
}

func (r *pipeRelinker) waitReconnect(token transport.SessionToken, lastEpoch uint32) (transport.Conn, uint32, error) {
	for {
		c, ok := <-r.ch
		if !ok {
			return nil, 0, errors.New("relinker closed")
		}
		m, err := c.Recv()
		if err != nil {
			c.Close()
			continue
		}
		epoch, err := transport.ParseResume(m, token, lastEpoch)
		if err != nil {
			c.Close()
			continue
		}
		return c, epoch, nil
	}
}

// runResumable migrates w with the given per-epoch fault scripts on the
// source's connections and requires one survived retry per script that
// faults. It returns the bytes the source moved.
func (w *world) runResumable(scripts ...[]transport.Fault) int64 {
	w.t.Helper()
	inj := transport.NewInjector(scripts...)
	relink := newPipeRelinker(inj)
	relink.pair = w.pair
	w.connSrc = inj.Wrap(w.connSrc)
	rep, _ := w.tpm(Config{MaxRetries: 5, RetryBackoff: time.Millisecond, Redial: relink.redial},
		Config{WaitReconnect: relink.waitReconnect}, nil)
	wantRetries := 0
	for _, sc := range scripts {
		if len(sc) > 0 {
			wantRetries++
		}
	}
	if rep.Retries != wantRetries {
		w.t.Fatalf("source survived %d retries, want %d", rep.Retries, wantRetries)
	}
	return rep.MigratedBytes
}

// framesMidMemPhase lands a fault halfway through the memory pre-copy of
// the deterministic quiescent migration: HELLO, one disk iteration
// (ITER_START + testBlocks + ITER_END, converging immediately on a quiescent
// guest), MEM_ITER_START, then half the pages.
const framesMidMemPhase = 1 + (1 + testBlocks + 1) + 1 + testPages/2

// TestResumeMidMemPreCopy is the headline crash/resume scenario: the link
// dies halfway through the memory pre-copy, the source reconnects, re-enters
// the interrupted phase, and completes — re-sending only the interrupted
// iteration, so the total wire cost stays materially below two full
// transfers.
func TestResumeMidMemPreCopy(t *testing.T) {
	// The baseline: one fault-free default-config migration of an identical
	// world.
	cleanRep, _ := newWorld(t).tpm(Config{}, Config{}, nil)
	clean := cleanRep.MigratedBytes
	bytes := newWorld(t).runResumable([]transport.Fault{{AfterSends: framesMidMemPhase, Kind: transport.FaultCut}})

	if bytes <= clean {
		t.Fatalf("resumed run moved %d bytes, below the clean run's %d — fault never fired?", bytes, clean)
	}
	// One full transfer plus only the frames in flight at the cut and the
	// resume bookkeeping: the destination's transfer cursor spares
	// everything it confirmed. Anything near 2x means phases were re-sent.
	if limit := clean + clean/4; bytes >= limit {
		t.Fatalf("resumed run moved %d bytes, want < %d (clean run %d): resume re-transferred too much", bytes, limit, clean)
	}
	t.Logf("clean %d bytes, resumed %d bytes (overhead %.1f%%)", clean, bytes, float64(bytes-clean)/float64(clean)*100)
}

// TestResumeMidDiskPreCopy kills the link a quarter into the first disk
// iteration; the rewind re-sends that iteration only.
func TestResumeMidDiskPreCopy(t *testing.T) {
	newWorld(t).runResumable([]transport.Fault{{AfterSends: 2 + testBlocks/4, Kind: transport.FaultCut}})
}

// TestResumeStaged cuts the link mid-pass over loopback TCP, where the source
// stages data frames: each cut loses the staged batch with the link, yet
// every run resumes and, since what is owed comes from the destination's
// progress, re-sends only that — the wire cost stays near one transfer.
func TestResumeStaged(t *testing.T) {
	clean, _ := newWorld(t, worldSpec{stream: true}).tpm(Config{}, Config{}, nil)
	for _, tc := range []struct {
		name    string
		scripts [][]transport.Fault
	}{
		{"mid-disk", [][]transport.Fault{{{AfterSends: 2 + testBlocks/4, Kind: transport.FaultCut}}}},
		{"mid-mem", [][]transport.Fault{{{AfterSends: framesMidMemPhase, Kind: transport.FaultCut}}}},
		{"two-faults", [][]transport.Fault{
			{{AfterSends: framesMidMemPhase, Kind: transport.FaultCut}},
			{{AfterSends: testPages / 2, Kind: transport.FaultCut}}}},
		{"half-close", [][]transport.Fault{{{AfterSends: framesMidMemPhase, Kind: transport.FaultHalfClose}}}},
		{"recv", [][]transport.Fault{{{AfterRecvs: 1, Kind: transport.FaultCut}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, worldSpec{stream: true})
			if !transport.Stage(w.connSrc, transport.StageMax) {
				t.Fatal("the loopback link does not stage")
			}
			bytes := w.runResumable(tc.scripts...)
			if limit := clean.MigratedBytes + clean.MigratedBytes/4; bytes >= limit {
				t.Fatalf("resumed run moved %d bytes, want < %d (clean run %d): resume re-sent more than was owed", bytes, limit, clean.MigratedBytes)
			}
		})
	}
}

// blockLog counts, across every connection epoch it wraps, how often each
// disk block's content was put on the wire.
type blockLog struct {
	transport.Conn
	sends []int // shared by the epochs' wrappers
}

func (l *blockLog) Send(m transport.Message) error {
	switch m.Type {
	case transport.MsgMemPage, transport.MsgMemPageDelta, transport.MsgMemPages:
	default:
		start, n := transport.CarriedUnits(m)
		for b := start; b < start+n; b++ {
			l.sends[b]++
		}
	}
	return l.Conn.Send(m)
}

// TestResumeDoesNotResendSkipped cuts the link in the middle of a disk
// iteration that has already skipped some blocks as re-dirtied. The skip
// dropped them from the iteration's checkpointed owed set, so the resumed
// iteration neither re-sends nor re-counts them; the tracker still owes them,
// so they travel exactly once, later, and the final image is exact.
func TestResumeDoesNotResendSkipped(t *testing.T) {
	w := newWorld(t)
	// Ten blocks the cut iteration reaches before the fault, ten it reaches
	// only after the resume: all dirty in the live tracker from the start.
	early, late := newBitmapWith(testBlocks, 10, 10), newBitmapWith(testBlocks, 1500, 10)
	w.src.Backend.SeedDirty(early)
	w.src.Backend.SeedDirty(late)

	inj := transport.NewInjector([]transport.Fault{{AfterSends: 2 + testBlocks/4, Kind: transport.FaultCut}})
	relink := newPipeRelinker(inj)
	sends := make([]int, testBlocks)
	var iters []Event
	srcCfg := Config{
		MaxRetries: 5, RetryBackoff: time.Millisecond,
		Redial: func() (transport.Conn, error) {
			c, err := relink.redial()
			return &blockLog{Conn: c, sends: sends}, err
		},
		OnEvent: func(ev Event) {
			if ev.Kind == EventIterationEnd && ev.Phase == PhaseDiskPreCopy {
				iters = append(iters, ev)
			}
		},
	}
	w.connSrc = &blockLog{Conn: inj.Wrap(w.connSrc), sends: sends}
	rep, _ := w.tpm(srcCfg, Config{WaitReconnect: relink.waitReconnect}, nil)
	if rep.Retries != 1 {
		t.Fatalf("survived %d retries, want 1", rep.Retries)
	}
	for b, n := range sends {
		if skipped := early.Test(b) || late.Test(b); skipped && n != 1 {
			t.Fatalf("block %d, skipped in iteration 1, was sent %d times, want once", b, n)
		} else if n < 1 {
			t.Fatalf("block %d never sent", b)
		}
	}
	// The resumed iteration 1 owed what the destination had not confirmed,
	// minus the ten blocks skipped before the cut; it skipped the other ten.
	first := iters[0]
	if first.Iteration != 1 || first.Skipped != 10 || first.Dirty != 20 {
		t.Fatalf("resumed iteration 1: %+v, want 10 skipped and 20 dirty", first)
	}
	if resent := first.Units + first.Skipped; resent >= testBlocks-testBlocks/4+64 {
		t.Fatalf("resumed iteration owed %d blocks: the cursor was not honoured", resent)
	}
}

// TestResumeRecvFault kills the source's receive path (the reader goroutine
// notices, not the send path), during the freeze/post-copy window where the
// source is waiting on destination traffic.
func TestResumeRecvFault(t *testing.T) {
	// The source receives HELLO_ACK (1) and then destination notifications;
	// failing the 2nd recv lands while waiting for RESUMED or DONE.
	newWorld(t).runResumable([]transport.Fault{{AfterRecvs: 1, Kind: transport.FaultCut}})
}

// TestResumeTwoFaults survives a mid-mem-precopy cut and then a second cut
// on the first reconnected epoch.
func TestResumeTwoFaults(t *testing.T) {
	newWorld(t).runResumable(
		[]transport.Fault{{AfterSends: framesMidMemPhase, Kind: transport.FaultCut}},
		[]transport.Fault{{AfterSends: testPages / 2, Kind: transport.FaultCut}})
}

// TestResumeHalfClose: the source's send side dies but its receive side
// stays up (one-sided close); the retry driver must still re-establish a
// fresh link and complete.
func TestResumeHalfClose(t *testing.T) {
	newWorld(t).runResumable([]transport.Fault{{AfterSends: framesMidMemPhase, Kind: transport.FaultHalfClose}})
}

// TestFaultFailsFastWithoutRetries: a cut link under the default config
// (MaxRetries 0) aborts both endpoints with a connection error instead of
// hanging or retrying.
func TestFaultFailsFastWithoutRetries(t *testing.T) {
	w := newWorld(t)
	w.connSrc = transport.NewScriptedFaultConn(w.connSrc, transport.Fault{AfterSends: framesMidMemPhase, Kind: transport.FaultCut})
	_, _, srcErr, dstErr := w.tpmPair(Config{}, Config{}, nil)
	if dstErr == nil {
		t.Fatal("destination completed over a cut link")
	}
	if !transport.IsConnError(srcErr) {
		t.Fatalf("source error %v, want a connection error", srcErr)
	}
}

// TestResumeDeclinedByDest: when the destination has no reconnect path, the
// handshake declines the offered token and a later fault is fatal despite
// the source's retry budget.
func TestResumeDeclinedByDest(t *testing.T) {
	w := newWorld(t)
	relink := newPipeRelinker(nil)
	w.connSrc = transport.NewScriptedFaultConn(w.connSrc, transport.Fault{AfterSends: framesMidMemPhase, Kind: transport.FaultCut})
	_, _, srcErr, dstErr := w.tpmPair(Config{MaxRetries: 3, RetryBackoff: time.Millisecond, Redial: relink.redial}, Config{}, nil)
	if dstErr == nil {
		t.Fatal("destination completed over a cut link")
	}
	if srcErr == nil {
		t.Fatal("source completed although the destination declined resume")
	}
}

// TestResumeUnderWorkload runs the crash/resume scenario with the guest
// dirtying blocks throughout, verifying post-resume convergence with
// concurrent writes (the shadow check is authoritative).
func TestResumeUnderWorkload(t *testing.T) {
	w := newWorld(t)
	g := w.startGuest(workload.New(workload.Web, testBlocks, 7), 200, 0, nil)
	w.runResumable([]transport.Fault{{AfterSends: framesMidMemPhase, Kind: transport.FaultCut}})
	g.stop()
}

// TestResumeEventStream checks the reconnect surfaces on the event bus and
// in ProgressTracker.
func TestResumeEventStream(t *testing.T) {
	w := newWorld(t)
	tracker := NewProgressTracker()
	inj := transport.NewInjector(
		[]transport.Fault{{AfterSends: framesMidMemPhase, Kind: transport.FaultCut}})
	relink := newPipeRelinker(inj)
	srcCfg := Config{
		MaxRetries:   5,
		RetryBackoff: time.Millisecond,
		Redial:       relink.redial,
		OnEvent:      tracker.Handle,
	}
	w.connSrc = inj.Wrap(w.connSrc)
	w.tpm(srcCfg, Config{WaitReconnect: relink.waitReconnect}, nil)
	p := tracker.Snapshot()
	if p.Reconnects != 1 {
		t.Fatalf("tracker saw %d reconnects, want 1", p.Reconnects)
	}
	if !p.Done || p.Err != "" {
		t.Fatalf("tracker final state %+v, want clean completion", p)
	}
}

// TestResumeJournalCheckpoints: across a reconnect, the journal holds at
// each phase end the disk blocks a cold resume would owe there — the whole
// disk through the first disk iteration, then only the blocks the guest wrote
// after it — and is gone once the migration succeeds.
func TestResumeJournalCheckpoints(t *testing.T) {
	w := newWorld(t)
	path := t.TempDir() + "/migration.journal"
	written := newBitmapWith(testBlocks, 5, 3)
	want := map[string]*bitmap.Bitmap{
		PhaseDiskPreCopy: bitmap.NewAllSet(testBlocks),
		PhaseMemPreCopy:  written,
		PhaseFreezeCopy:  written,
		PhasePostCopy:    written,
	}
	seen := map[string]bool{}
	inj := transport.NewInjector(
		[]transport.Fault{{AfterSends: framesMidMemPhase, Kind: transport.FaultCut}})
	relink := newPipeRelinker(inj)
	srcCfg := Config{
		MaxRetries:   5,
		RetryBackoff: time.Millisecond,
		Redial:       relink.redial,
		JournalPath:  path,
		OnEvent: func(ev Event) {
			if ev.Kind != EventPhaseEnd || ev.Side != "source" || want[ev.Phase] == nil {
				return
			}
			seen[ev.Phase] = true
			if owed, err := bitmap.LoadFile(path); err != nil || !owed.Equal(want[ev.Phase]) {
				t.Errorf("journal at the end of %s: %v, owed %v, want %v", ev.Phase, err, owed, want[ev.Phase])
			}
			if ev.Phase != PhaseDiskPreCopy {
				return
			}
			buf := make([]byte, blockdev.BlockSize)
			written.ForEachSet(func(n int) bool {
				workload.FillBlock(buf, n, 9)
				if err := w.shadow.Submit(blockdev.Request{Op: blockdev.Write, Domain: testDomain, Block: n, Data: buf}); err != nil {
					t.Errorf("guest write: %v", err)
				}
				return true
			})
		},
	}
	w.connSrc = inj.Wrap(w.connSrc)
	if rep, _ := w.tpm(srcCfg, Config{WaitReconnect: relink.waitReconnect}, nil); rep.Retries != 1 {
		t.Fatalf("source survived %d retries, want 1", rep.Retries)
	}
	for phase := range want {
		if !seen[phase] {
			t.Errorf("the source never ended %s", phase)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("journal left behind after success: %v", err)
	}
}

// TestJournalWithoutRetries: a fail-fast source (MaxRetries 0) with a
// JournalPath still journals, so a source cut mid disk pre-copy leaves a file
// a cold resume can load, holding every block the destination does not hold.
func TestJournalWithoutRetries(t *testing.T) {
	w := newWorld(t)
	path := t.TempDir() + "/migration.journal"
	inj := transport.NewInjector(
		[]transport.Fault{{AfterSends: 1 + 1 + testBlocks/2, Kind: transport.FaultCut}})
	w.connSrc = inj.Wrap(w.connSrc)
	if _, _, srcErr, _ := w.tpmPair(Config{JournalPath: path}, Config{}, nil); srcErr == nil {
		t.Fatal("the cut source reported success")
	}
	owed, err := bitmap.LoadFile(path)
	if err != nil {
		t.Fatalf("no journal after the cut: %v", err)
	}
	if owed.Len() != testBlocks {
		t.Fatalf("journal covers %d blocks, the disk has %d", owed.Len(), testBlocks)
	}
	src, dst := make([]byte, blockdev.BlockSize), make([]byte, blockdev.BlockSize)
	for n := 0; n < testBlocks; n++ {
		if err := w.srcDisk.ReadBlock(n, src); err != nil {
			t.Fatal(err)
		}
		if err := w.dstDisk.ReadBlock(n, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(src, dst) && !owed.Test(n) {
			t.Fatalf("block %d never reached the destination and the journal does not owe it", n)
		}
	}
}

// TestOwedUnitsCrossIterationRedirty: a block the destination confirms for
// iteration k can be owed AGAIN by iteration k+1 (re-dirtied while k was in
// flight); the cursor subtraction must never erase the newer copy's debt.
func TestOwedUnitsCrossIterationRedirty(t *testing.T) {
	const n = 64
	iter1 := bitmap.New(n) // in flight at the cut
	iter1.Set(10)
	iter1.Set(11)
	iter2 := bitmap.New(n) // already started on the source (buffered ahead)
	iter2.Set(11)          // block 11 re-dirtied during iteration 1
	recv := bitmap.New(n)  // dest confirms both blocks of iteration 1
	recv.Set(10)
	recv.Set(11)
	owed := owedUnits(map[int]*bitmap.Bitmap{1: iter1, 2: iter2}, 0, 1, recv)
	if owed == nil || !owed.Test(11) {
		t.Fatal("block 11's iteration-2 copy dropped: confirmed-for-iter-1 must not cancel a later iteration's debt")
	}
	if owed.Test(10) {
		t.Fatal("block 10 re-owed although the destination confirmed it and no later iteration touched it")
	}
	// And the fully-confirmed case owes nothing.
	if owed := owedUnits(map[int]*bitmap.Bitmap{1: iter1}, 0, 1, recv); owed != nil && owed.Any() {
		t.Fatalf("%d blocks owed after full confirmation", owed.Count())
	}
}

// recvDeadConn lets one reconnect attempt deliver its outbound frames and
// even receive the peer's reply — then drops it and dies: the "session ack
// sent successfully but lost in flight" failure, deterministically.
type recvDeadConn struct{ transport.Conn }

func (c recvDeadConn) Recv() (transport.Message, error) {
	c.Conn.Recv() // the ack arrives... and is lost with the link
	c.Conn.Close()
	return transport.Message{}, transport.ErrInjected
}

// TestResumeSurvivesLostAck: the destination's ack for reconnect epoch N is
// lost (its lastEpoch advanced, the source's did not). The source's next
// attempt must offer a HIGHER epoch — re-offering N would be rejected as
// stale forever, burning the whole retry budget.
func TestResumeSurvivesLostAck(t *testing.T) {
	w := newWorld(t)
	relink := newPipeRelinker(nil)
	ackLost := false
	redial := func() (transport.Conn, error) {
		pa, pb := transport.NewPipe(64)
		relink.ch <- pb
		if !ackLost {
			ackLost = true
			return recvDeadConn{pa}, nil
		}
		return pa, nil
	}
	srcCfg := Config{
		MaxRetries:   5,
		RetryBackoff: time.Millisecond,
		Redial:       redial,
	}
	inj := transport.NewInjector(
		[]transport.Fault{{AfterSends: framesMidMemPhase, Kind: transport.FaultCut}})
	w.connSrc = inj.Wrap(w.connSrc)
	rep, _ := w.tpm(srcCfg, Config{WaitReconnect: relink.waitReconnect}, nil)
	// One link cut, two reconnect attempts (the first lost its ack), one
	// successful resume.
	if rep.Retries != 1 {
		t.Fatalf("source recorded %d successful resumes, want 1", rep.Retries)
	}
}
