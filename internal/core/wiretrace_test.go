package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bbmig/internal/bitmap"
	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite wire-trace golden files")

// traceConn records every frame sent through it. Each endpoint's send
// sequence is deterministic for a quiescent migration (one send goroutine per
// side under the default config), so recording sends on both sides captures
// the full wire dialogue without cross-direction interleaving ambiguity.
type traceConn struct {
	inner  transport.Conn
	mu     sync.Mutex
	frames []string
}

func (t *traceConn) Send(m transport.Message) error {
	h := fnv.New64a()
	h.Write(m.Payload)
	t.mu.Lock()
	t.frames = append(t.frames, fmt.Sprintf("%s arg=%d len=%d fnv=%016x", m.Type, m.Arg, len(m.Payload), h.Sum64()))
	t.mu.Unlock()
	return t.inner.Send(m)
}

func (t *traceConn) Recv() (transport.Message, error) { return t.inner.Recv() }
func (t *traceConn) Close() error                     { return t.inner.Close() }

func (t *traceConn) trace() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.frames...)
}

// traceEnv is a fully deterministic two-host world: pattern-filled disk and
// memory, fixed CPU state, no workload, no randomness.
type traceEnv struct {
	srcDisk, dstDisk *blockdev.MemDisk
	src, dst         Host
	connSrc, connDst *traceConn
}

func newTraceEnv(t *testing.T) *traceEnv {
	t.Helper()
	e := &traceEnv{
		srcDisk: blockdev.NewMemDisk(testBlocks, blockdev.BlockSize),
		dstDisk: blockdev.NewMemDisk(testBlocks, blockdev.BlockSize),
	}
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < testBlocks; n += 3 {
		workload.FillBlock(buf, n, 0)
		if err := e.srcDisk.WriteBlock(n, buf); err != nil {
			t.Fatal(err)
		}
	}
	srcVM := vm.New("guest", testDomain, testPages, 0)
	cpu := make([]byte, 512)
	for i := range cpu {
		cpu[i] = byte(i * 7)
	}
	srcVM.SetCPU(vm.CPUState{Registers: cpu})
	for p := 0; p < testPages; p += 2 {
		workload.FillBlock(buf, p+100000, 0)
		if err := srcVM.Memory().WritePage(p, buf[:vm.PageSize]); err != nil {
			t.Fatal(err)
		}
	}
	e.src = Host{VM: srcVM, Backend: blkback.NewBackend(e.srcDisk, testDomain)}
	e.dst = Host{VM: vm.NewDestination(srcVM), Backend: blkback.NewBackend(e.dstDisk, testDomain)}
	cs, cd := transport.NewPipe(64)
	e.connSrc = &traceConn{inner: cs}
	e.connDst = &traceConn{inner: cd}
	return e
}

// renderTrace formats both directions as one golden document.
func renderTrace(srcTrace, dstTrace []string) string {
	var b strings.Builder
	b.WriteString("# wire trace: frames sent by each endpoint, in send order\n")
	b.WriteString("--- source->dest ---\n")
	for _, f := range srcTrace {
		b.WriteString(f)
		b.WriteByte('\n')
	}
	b.WriteString("--- dest->source ---\n")
	for _, f := range dstTrace {
		b.WriteString(f)
		b.WriteByte('\n')
	}
	return b.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", name), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	matchGolden(t, name, got)
}

// matchGolden compares got with a recorded golden and never rewrites it.
func matchGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("wire trace diverges from seed protocol at line %d:\n  got:  %q\n  want: %q\n(total %d vs %d lines)",
				i+1, g, w, len(gotLines), len(wantLines))
		}
	}
	t.Fatal("wire trace differs from golden (length mismatch)")
}

// goldenScheme is one row of TestWireTraceGolden: a scheme run to completion
// on the deterministic traceEnv, with the kind@phase event sequence each
// endpoint must announce (heartbeats left out: they are throttled by byte
// count, not part of the sequence).
type goldenScheme struct {
	name                 string
	run                  func(t *testing.T, e *traceEnv, src, dst Config)
	srcEvents, dstEvents []string
}

// await runs both endpoints (runPair) and fails the test if either does.
func await(t *testing.T, source, dest func() error) {
	t.Helper()
	if srcErr, dstErr := runPair(source, dest); srcErr != nil || dstErr != nil {
		t.Fatalf("source: %v, destination: %v", srcErr, dstErr)
	}
}

func runTracedTPM(initial func(e *traceEnv) *bitmap.Bitmap) func(*testing.T, *traceEnv, Config, Config) {
	return func(t *testing.T, e *traceEnv, src, dst Config) {
		await(t,
			func() error { _, err := MigrateSource(src, e.src, e.connSrc, initial(e)); return err },
			func() error { _, err := MigrateDest(dst, e.dst, e.connDst); return err })
	}
}

// wholeDisk is the primary migration's initial set: none.
func wholeDisk(*traceEnv) *bitmap.Bitmap { return nil }

// imDivergence seeds the fixed set of divergent blocks an incremental
// migration (§V) starts from.
func imDivergence(e *traceEnv) *bitmap.Bitmap {
	initial := bitmap.New(testBlocks)
	for _, n := range []int{0, 1, 2, 3, 64, 65, 66, 500, 501, 777, 1024, 2047} {
		initial.Set(n)
	}
	e.src.Backend.SeedDirty(initial)
	return e.src.Backend.SwapDirty()
}

func runTracedFreezeAndCopy(t *testing.T, e *traceEnv, src, dst Config) {
	await(t,
		func() error { _, err := MigrateFreezeAndCopySource(src, e.src, e.connSrc); return err },
		func() error { _, err := MigrateFreezeAndCopyDest(dst, e.dst, e.connDst); return err })
}

// runTracedOnDemand reads a fixed set of blocks through the gate once the
// source has seen RESUMED (so RESUMED and the first PULL_REQUEST cannot swap
// places on the wire), one at a time, then releases the source.
func runTracedOnDemand(t *testing.T, e *traceEnv, src, dst Config) {
	gateCh := make(chan *blkback.PostCopyGate, 1)
	dst.OnResume = func(g *blkback.PostCopyGate) { gateCh <- g }
	resumed := make(chan struct{})
	src.OnEvent = ChainEvents(src.OnEvent, func(ev Event) {
		if ev.Kind == EventResumed {
			close(resumed)
		}
	})
	release := make(chan struct{})
	go func() {
		defer close(release)
		<-resumed
		gate := <-gateCh
		buf := make([]byte, blockdev.BlockSize)
		for _, n := range []int{0, 3, 9, 600, 601} {
			if err := gate.Submit(blockdev.Request{Op: blockdev.Read, Block: n, Domain: testDomain, Data: buf}); err != nil {
				t.Errorf("on-demand read %d: %v", n, err)
			}
		}
	}()
	await(t,
		func() error { _, err := MigrateOnDemandSource(src, e.src, e.connSrc); return err },
		func() error { _, err := MigrateOnDemandDest(dst, e.dst, e.connDst, release); return err })
}

// runTracedDelta submits a fixed write script through the forwarder from the
// engine's own goroutine, at three fixed points of the pipeline, so every
// DELTA frame has one possible place in the source's send order.
func runTracedDelta(t *testing.T, e *traceEnv, src, dst Config) {
	fwd := NewDeltaForwarder(e.src.Backend, e.connSrc)
	gen := uint32(0)
	write := func(blocks ...int) {
		buf := make([]byte, blockdev.BlockSize)
		for _, n := range blocks {
			gen++
			workload.FillBlock(buf, n, gen)
			if err := fwd.Submit(blockdev.Request{Op: blockdev.Write, Block: n, Domain: testDomain, Data: buf}); err != nil {
				t.Errorf("scripted write %d: %v", n, err)
			}
		}
	}
	src.OnEvent = ChainEvents(src.OnEvent, func(ev Event) {
		switch {
		case ev.Kind == EventPhaseStart && ev.Phase == PhaseDeltaForward:
			write(5, 5, 9, 700)
		case ev.Kind == EventPhaseStart && ev.Phase == PhaseMemPreCopy:
			write(5, 1500)
		}
	})
	src.OnFreeze = func() { write(9) }
	var res *DestResult
	await(t,
		func() error { _, err := MigrateDeltaSource(src, e.src, e.connSrc, fwd); return err },
		func() (err error) { res, err = MigrateDeltaDest(dst, e.dst, e.connDst); return err })
	if res.Report.StalePushes != 3 { // 5 three times, 9 twice
		t.Errorf("%d redundant deltas, want 3", res.Report.StalePushes)
	}
	diffs, err := blockdev.Diff(e.dstDisk, e.srcDisk)
	if err != nil || len(diffs) != 0 {
		t.Errorf("replayed disk differs from the source at %d blocks (%v)", len(diffs), err)
	}
}

// eventSeq renders an endpoint's events as kind@phase.
func eventSeq(c *collectEvents) []string {
	var out []string
	for _, ev := range c.all() {
		if ev.Kind != EventBytesTransferred {
			out = append(out, ev.Kind.String()+"@"+ev.Phase)
		}
	}
	return out
}

// phaseEvents spells "phase-start@p, inner@p..., phase-end@p".
func phaseEvents(p string, inner ...string) []string {
	out := []string{"phase-start@" + p}
	for _, k := range inner {
		out = append(out, k+"@"+p)
	}
	return append(out, "phase-end@"+p)
}

func seqOf(parts ...[]string) []string {
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

var (
	tpmSrcEvents = seqOf(
		phaseEvents(PhaseHandshake),
		phaseEvents(PhaseDiskPreCopy, "iteration-end"),
		phaseEvents(PhaseMemPreCopy, "iteration-end"),
		phaseEvents(PhaseFreezeCopy, "suspended", "resumed"),
		phaseEvents(PhasePostCopy), []string{"completed@" + PhasePostCopy})
	tpmDstEvents = seqOf(
		phaseEvents(PhaseHandshake),
		phaseEvents(PhaseDiskPreCopy, "iteration-end", "iteration-end", "suspended"),
		phaseEvents(PhasePostCopy, "resumed"), []string{"completed@" + PhasePostCopy})
)

var goldenSchemes = []goldenScheme{
	{"tpm", runTracedTPM(wholeDisk), tpmSrcEvents, tpmDstEvents},
	{"im", runTracedTPM(imDivergence), tpmSrcEvents, tpmDstEvents},
	{"freeze_and_copy", runTracedFreezeAndCopy,
		seqOf(
			phaseEvents(PhaseHandshake),
			phaseEvents(PhaseFreezeCopy, "suspended", "resumed"), []string{"completed@" + PhaseFreezeCopy}),
		seqOf(
			phaseEvents(PhaseHandshake),
			phaseEvents(PhaseFreezeCopy, "suspended"),
			phaseEvents(PhasePostCopy, "resumed"), []string{"completed@" + PhasePostCopy})},
	{"on_demand", runTracedOnDemand,
		seqOf(
			phaseEvents(PhaseHandshake),
			phaseEvents(PhaseMemPreCopy, "iteration-end"),
			phaseEvents(PhaseFreezeCopy, "suspended"),
			phaseEvents(PhaseOnDemand, "resumed", "pull-served", "pull-served", "pull-served", "pull-served", "pull-served"),
			[]string{"completed@" + PhaseOnDemand}),
		seqOf(
			phaseEvents(PhaseHandshake),
			phaseEvents(PhaseMemPreCopy, "iteration-end", "suspended"),
			phaseEvents(PhaseOnDemand, "resumed"), []string{"completed@" + PhaseOnDemand})},
	{"delta_forward", runTracedDelta,
		seqOf(
			phaseEvents(PhaseHandshake),
			phaseEvents(PhaseDeltaForward),
			phaseEvents(PhaseMemPreCopy, "iteration-end"),
			phaseEvents(PhaseFreezeCopy, "suspended", "resumed"), []string{"completed@" + PhaseFreezeCopy}),
		seqOf(
			phaseEvents(PhaseHandshake),
			phaseEvents(PhaseDeltaForward, "suspended"),
			phaseEvents(PhaseDeltaReplay, "resumed"), []string{"completed@" + PhaseDeltaReplay})},
}

// TestWireTraceGolden proves each scheme under the default config emits a
// frame-for-frame identical wire dialogue to the recorded one — for TPM and IM
// the seed protocol's, for the three comparison baselines the dialogue of
// their hand-written pipelines before they became phase lists: same frame
// types, same order, same args, same payload bytes (FNV-1a hashed). The same
// run pins the event sequence each endpoint announces. Any refactor of the
// engine must keep this green without regenerating the goldens.
func TestWireTraceGolden(t *testing.T) {
	for _, sc := range goldenSchemes {
		t.Run(sc.name, func(t *testing.T) {
			e := newTraceEnv(t)
			var srcEvs, dstEvs collectEvents
			sc.run(t, e, Config{OnEvent: srcEvs.handle}, Config{OnEvent: dstEvs.handle})
			checkGolden(t, "wiretrace_"+sc.name+".golden", renderTrace(e.connSrc.trace(), e.connDst.trace()))
			for _, side := range []struct {
				name      string
				got, want []string
			}{{"source", eventSeq(&srcEvs), sc.srcEvents}, {"dest", eventSeq(&dstEvs), sc.dstEvents}} {
				if strings.Join(side.got, " ") != strings.Join(side.want, " ") {
					t.Errorf("%s events\n  got:  %v\n  want: %v", side.name, side.got, side.want)
				}
			}
		})
	}
}
