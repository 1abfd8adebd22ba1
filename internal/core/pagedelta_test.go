package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"bbmig/internal/blockdev"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// hotPageScript is a guest whose page writes are scripted at fixed points of
// the source's event stream, on the source's own goroutine: no clock, no
// race, the same frames every run.
//
//	memory pre-copy starts   one word of pages 4 and 6, 250 words of 8, 10, 12
//	memory iteration 1 ends  the same of 4, 8, 10, 12 again; all of cold page 20
//	memory iteration 2 ends  one word of 6, 12 and 20; all of cold page 30
//
// With a one-page freeze budget iteration 2 leaves 4, 8 and 10 to the freeze
// (their deltas fit the budget), sends 12's delta now (it does not) and 20
// literally (it has no base yet); the freeze carries 4, 6, 8, 10, 12 and 20 as
// deltas and 30, never seen dirty before, literally.
type hotPageScript struct {
	t    *testing.T
	mem  *vm.Memory
	gen  uint64
	seen map[string]bool
}

// poke changes words [0, words) of page p to values it never held.
func (g *hotPageScript) poke(p, words int) {
	page := make([]byte, vm.PageSize)
	if err := g.mem.ReadPage(p, page); err != nil {
		g.t.Error(err)
	}
	g.gen++
	for w := 0; w < words; w++ {
		binary.LittleEndian.PutUint64(page[8*w:], g.gen<<32|uint64(w+1))
	}
	if err := g.mem.WritePage(p, page); err != nil {
		g.t.Error(err)
	}
}

func (g *hotPageScript) onEvent(ev Event) {
	at := fmt.Sprintf("%v@%s#%d", ev.Kind, ev.Phase, ev.Iteration)
	if g.seen[at] { // a phase re-entered after a reconnect announces itself again
		return
	}
	g.seen[at] = true
	const all = vm.PageSize / 8
	switch at {
	case "phase-start@" + PhaseMemPreCopy + "#0":
		g.poke(4, 1)
		g.poke(6, 1)
		for _, p := range []int{8, 10, 12} {
			g.poke(p, 250)
		}
	case "iteration-end@" + PhaseMemPreCopy + "#1":
		g.poke(4, 1)
		for _, p := range []int{8, 10, 12} {
			g.poke(p, 250)
		}
		g.poke(20, all)
	case "iteration-end@" + PhaseMemPreCopy + "#2":
		g.poke(6, 1)
		g.poke(12, 1)
		g.poke(20, 1)
		g.poke(30, all)
	}
}

// hotPageTPM migrates w under the script, or with the guest idle, from a
// source configured as src plus a one-page freeze budget. The scripted run
// gets exactly the two memory iterations its writes are laid out over: each
// is written at an iteration's end event, after the engine has counted the
// dirty set.
func hotPageTPM(w *world, scripted bool, src, dst Config) *metrics.Report {
	src.OnFreeze, dst.OnResume = w.router.Freeze, w.router.ResumeGate
	if scripted {
		src.OnEvent = (&hotPageScript{t: w.t, mem: w.src.VM.Memory(), seen: map[string]bool{}}).onEvent
	}
	s := newSourceRun(src, w.src, w.connSrc, "TPM")
	s.pages = vm.NewBaseBook(w.src.VM.Memory(), 1)
	if scripted {
		s.stopRule = memIterations(2)
	}
	var rep *metrics.Report
	w.migrate(
		func() (err error) { rep, err = s.run(s.tpmPhases(nil)); return err },
		func() error { _, err := MigrateDest(dst, w.dst, w.connDst); return err })
	return rep
}

// pageForms extracts, per page, the sequence of frame types a source trace
// carried it in.
func pageForms(trace []string) map[int][]string {
	forms := map[int][]string{}
	for _, f := range trace {
		var typ string
		var arg int
		if _, err := fmt.Sscanf(f, "%s arg=%d", &typ, &arg); err == nil && strings.HasPrefix(typ, "MEM_PAGE") {
			forms[arg] = append(forms[arg], typ)
		}
	}
	return forms
}

// TestWireTraceGoldenHotPages pins the frames a writing guest produces:
// literal, then delta — in pre-copy when the freeze budget is spent, in the
// freeze otherwise — for a page the source has seen dirty, literal only for a
// cold one. The same harness with the guest idle emits exactly the default
// TPM trace: page deltas are never seen by a guest that does not write.
func TestWireTraceGoldenHotPages(t *testing.T) {
	idle := traced(t)
	hotPageTPM(idle, false, Config{}, Config{})
	matchGolden(t, "wiretrace_tpm.golden", idle.trace())

	w := traced(t)
	hotPageTPM(w, true, Config{}, Config{})
	checkGolden(t, "wiretrace_tpm_hotpages.golden", w.trace())

	lit, delta := "MEM_PAGE", "MEM_PAGE_DELTA"
	forms := pageForms(w.traceSrc.trace())
	for p, want := range map[int][]string{
		4:  {lit, delta},        // left to the freeze by iteration 2
		6:  {lit, delta},        // clean through iteration 2, touched before the freeze
		8:  {lit, delta},        // a 2 KB delta, still inside the budget
		12: {lit, delta, delta}, // past the budget: iteration 2 sends it, the freeze again
		20: {lit, lit, delta},   // first seen dirty in iteration 1: no base until iteration 2
		30: {lit, lit},          // never seen dirty before the freeze
		31: {lit},               // never written
	} {
		if strings.Join(forms[p], " ") != strings.Join(want, " ") {
			t.Errorf("page %d travelled as %v, want %v", p, forms[p], want)
		}
	}
}

// TestAbortedMigrationLeavesNoDirtyEvidence: a migration that gives up in the
// middle, under a guest that is writing pages and blocks, stops and drains
// memory dirty logging and disk tracking on its way out. The next attempt,
// with the guest idle, sees an empty working set, keeps no base, sends no
// delta, skips no block and emits exactly the default TPM trace.
func TestAbortedMigrationLeavesNoDirtyEvidence(t *testing.T) {
	w := newWorld(t)
	mem := w.src.VM.Memory()

	// Attempt 1: the link is cut where memory iteration 1 would be half done,
	// the one redial allowed fails, the source gives up. The guest rewrites
	// pages and blocks with the bytes they hold — dirtying them without
	// changing the image the second attempt's trace is hashed from.
	page, block := make([]byte, vm.PageSize), make([]byte, blockdev.BlockSize)
	guest := &workload.Paced{Conn: transport.NewFaultConn(w.connSrc, framesMidMemPhase, 0), Every: 8, Round: func(i int) {
		p, n := i*7%testPages, i*7%testBlocks
		if err := mem.ReadPage(p, page); err != nil {
			t.Error(err)
		}
		if err := mem.WritePage(p, page); err != nil {
			t.Error(err)
		}
		if err := w.srcDisk.ReadBlock(n, block); err != nil {
			t.Error(err)
		}
		if err := w.router.Submit(blockdev.Request{Op: blockdev.Write, Block: n, Domain: testDomain, Data: block}); err != nil {
			t.Error(err)
		}
	}}
	gone := errors.New("no route to host")
	srcErr, dstErr := w.runPair(
		func() error {
			_, err := MigrateSource(Config{
				MaxRetries: 1, RetryBackoff: time.Millisecond,
				Redial: func() (transport.Conn, error) { return nil, gone },
			}, w.src, guest, nil)
			return err
		},
		func() error {
			_, err := MigrateDest(Config{
				WaitReconnect: func(transport.SessionToken, uint32) (transport.Conn, uint32, error) { return nil, 0, gone },
			}, w.dst, w.connDst)
			return err
		})
	if srcErr == nil || !strings.Contains(srcErr.Error(), "retries exhausted") || dstErr == nil {
		t.Fatalf("attempt 1: source %v, destination %v; want both to give up", srcErr, dstErr)
	}
	if mem.DirtyCount() != 0 || w.src.Backend.DirtyCount() != 0 {
		t.Fatalf("aborted migration left %d dirty pages and %d dirty blocks behind", mem.DirtyCount(), w.src.Backend.DirtyCount())
	}

	// Attempt 2, idle, to a fresh destination over a fresh link.
	retry := traced(t)
	retry.src = w.src
	hot, bases := -1, -1
	var s *sourceRun
	s = newSourceRun(Config{OnEvent: func(ev Event) {
		if ev.Kind == EventPhaseEnd && ev.Phase == PhaseMemPreCopy {
			hot, bases = s.pages.Hot(), s.pages.Bases()
		}
	}}, retry.src, retry.connSrc, "TPM")
	var rep *metrics.Report
	retry.migrate(
		func() (err error) { rep, err = s.run(s.tpmPhases(nil)); return err },
		func() error { _, err := MigrateDest(Config{}, retry.dst, retry.connDst); return err })
	if hot != 0 || bases != 0 || rep.DeltaPages() != 0 {
		t.Fatalf("idle retry: |W| = %d, %d bases, %d delta pages; want none", hot, bases, rep.DeltaPages())
	}
	matchGolden(t, "wiretrace_tpm.golden", retry.trace())
}

// frameIndex returns the 0-based position of the first frame of trace that
// starts with prefix.
func frameIndex(t *testing.T, trace []string, prefix string) int {
	t.Helper()
	for i, f := range trace {
		if strings.HasPrefix(f, prefix) {
			return i
		}
	}
	t.Fatalf("no %q frame in the trace", prefix)
	return -1
}

// reconnectAudit fails the test when, after a reconnect, a page travels as a
// delta although it has not been sent literally since: its base would predate
// the cut, and frames in flight at the cut are unconfirmed.
type reconnectAudit struct {
	transport.Conn
	t       *testing.T
	literal map[uint64]bool // pages sent literally on this, the reconnected, link; nil on the first
}

func (a *reconnectAudit) Send(m transport.Message) error {
	switch {
	case a.literal == nil:
	case m.Type == transport.MsgMemPage:
		a.literal[m.Arg] = true
	case m.Type == transport.MsgMemPageDelta && !a.literal[m.Arg]:
		a.t.Errorf("page %d sent as a delta against a base from before the reconnect", m.Arg)
	}
	return a.Conn.Send(m)
}

// TestReconnectDropsEveryBase cuts the link on the one delta frame of memory
// iteration 2 (transport.FaultCut: the frame is lost, the source's book has
// already moved that page's base forward). After the reconnect every page
// owed is literal — above all that one, which an intact book would find
// unchanged against its base and never send — and the destination verifies.
func TestReconnectDropsEveryBase(t *testing.T) {
	// A dry run of the same script finds the frame to cut on.
	dry := traced(t)
	hotPageTPM(dry, true, Config{}, Config{})
	cut := frameIndex(t, dry.traceSrc.trace(), "MEM_PAGE_DELTA arg=12 ")

	w := traced(t)
	inj := transport.NewInjector([]transport.Fault{{AfterSends: int64(cut), Kind: transport.FaultCut}})
	relink := newPipeRelinker(inj)
	cfg := Config{MaxRetries: 2, RetryBackoff: time.Millisecond}
	var relinked *reconnectAudit
	cfg.Redial = func() (transport.Conn, error) {
		c, err := relink.redial()
		relinked = &reconnectAudit{Conn: c, t: t, literal: map[uint64]bool{}}
		return relinked, err
	}
	w.connSrc = &reconnectAudit{Conn: inj.Wrap(w.connSrc), t: t}
	rep := hotPageTPM(w, true, cfg, Config{WaitReconnect: relink.waitReconnect})
	if rep.Retries != 1 {
		t.Fatalf("survived %d reconnects, want 1", rep.Retries)
	}
	if relinked == nil || !relinked.literal[12] {
		t.Fatal("page 12, whose delta was lost with the link, was not re-sent literally")
	}
}

// TestLyingSourcePageDelta plays a source that sends MEM_PAGE_DELTA for a
// page it never sent, and one whose delta names a base the destination does
// not hold: the destination fails the migration with an error naming the
// page, and its memory is untouched.
func TestLyingSourcePageDelta(t *testing.T) {
	base := make([]byte, vm.PageSize)
	workload.FillBlock(base, 777, 0)
	cur := append([]byte(nil), base...)
	cur[100] ^= 1
	good, _ := vm.AppendPageDelta(nil, base, cur, vm.WordUnit)
	wrongCRC := append([]byte(nil), good...)
	wrongCRC[0] ^= 0xff

	for _, tc := range []struct {
		name   string
		frames []transport.Message
		holds  []byte // what page 9 must hold afterwards; nil: never allocated
	}{
		{"never sent", []transport.Message{{Type: transport.MsgMemPageDelta, Arg: 9, Payload: good}}, nil},
		{"wrong crc", []transport.Message{
			{Type: transport.MsgMemPage, Arg: 9, Payload: base},
			{Type: transport.MsgMemPageDelta, Arg: 9, Payload: wrongCRC}}, base},
		{"stale base", []transport.Message{
			{Type: transport.MsgMemPage, Arg: 9, Payload: cur},
			{Type: transport.MsgMemPageDelta, Arg: 9, Payload: good}}, cur},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			dstErr := lieToDest(w, tc.frames...)
			if dstErr == nil || !strings.Contains(dstErr.Error(), "page 9") {
				t.Fatalf("destination error %v, want one naming page 9", dstErr)
			}
			mem := w.dst.VM.Memory()
			if tc.holds == nil {
				if mem.AllocatedPages() != 0 {
					t.Fatal("refused delta left a page behind")
				}
				return
			}
			got := make([]byte, vm.PageSize)
			if err := mem.ReadPage(9, got); err != nil || !bytes.Equal(got, tc.holds) {
				t.Fatalf("refused delta changed page 9 (%v)", err)
			}
		})
	}
}

// lieToDest plays a source that opens memory iteration 1 and sends frames,
// and returns the destination's error.
func lieToDest(w *world, frames ...transport.Message) error {
	w.t.Helper()
	geom, err := transport.Geometry{
		BlockSize: blockdev.BlockSize, NumBlocks: testBlocks, PageSize: vm.PageSize, NumPages: testPages,
	}.MarshalBinary()
	if err != nil {
		w.t.Fatal(err)
	}
	liar := func() error {
		script := append([]transport.Message{
			{Type: transport.MsgHello, Arg: transport.ProtocolVersion, Payload: geom},
			{Type: transport.MsgMemIterStart, Arg: 1},
		}, frames...)
		for i, m := range script {
			if err := w.connSrc.Send(m); err != nil {
				return err
			}
			if i == 0 {
				if _, err := w.connSrc.Recv(); err != nil { // HELLO_ACK
					return err
				}
			}
		}
		_, err := w.connSrc.Recv() // the destination's ERROR, or the close
		return err
	}
	_, dstErr := w.runPair(liar, func() error {
		_, err := MigrateDest(Config{}, w.dst, w.connDst)
		w.connDst.Close()
		return err
	})
	return dstErr
}
