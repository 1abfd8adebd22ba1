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
// on a traced world, with the kind@phase event sequence each endpoint must
// announce (heartbeats left out: they are throttled by byte count, not part
// of the sequence).
type goldenScheme struct {
	name                 string
	run                  func(t *testing.T, w *world, src, dst Config)
	srcEvents, dstEvents []string
}

// traced is the golden traces' world: the default one, every frame recorded.
func traced(t *testing.T) *world { return newWorld(t, worldSpec{traced: true}) }

// trace renders the frames both ends sent as one golden document.
func (w *world) trace() string { return renderTrace(w.traceSrc.trace(), w.traceDst.trace()) }

// runTracedIM returns the guest to a destination that holds its image but
// for the fixed set of divergent blocks an incremental migration (§V) starts
// from.
func runTracedIM(t *testing.T, w *world, src, dst Config) {
	initial := bitmap.New(testBlocks)
	for _, n := range []int{0, 1, 2, 3, 64, 65, 66, 500, 501, 777, 1024, 2047} {
		initial.Set(n)
	}
	w.incremental(src, dst, initial)
}

// incremental gives the destination the source's image but for the blocks
// of initial, then migrates incrementally from initial, as a cold resume
// does: seeded into the backend's dirty log and swapped out of it.
func (w *world) incremental(src, dst Config, initial *bitmap.Bitmap) {
	w.t.Helper()
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < w.srcDisk.NumBlocks(); n++ {
		if initial.Test(n) {
			continue
		}
		if err := w.srcDisk.ReadBlock(n, buf); err != nil {
			w.t.Fatal(err)
		}
		if err := w.dstDisk.WriteBlock(n, buf); err != nil {
			w.t.Fatal(err)
		}
	}
	w.src.Backend.SeedDirty(initial)
	w.tpm(src, dst, w.src.Backend.SwapDirty())
}

func runTracedFreezeAndCopy(t *testing.T, w *world, src, dst Config) {
	w.migrate(
		func() error { _, err := MigrateFreezeAndCopySource(src, w.src, w.connSrc); return err },
		func() error { _, err := MigrateFreezeAndCopyDest(dst, w.dst, w.connDst); return err })
}

// runTracedOnDemand reads a fixed set of blocks through the gate, then
// releases the source.
func runTracedOnDemand(t *testing.T, w *world, src, dst Config) {
	w.partial = true
	release := readAfterResume(w, &src, &dst, 0, 3, 9, 600, 601)
	w.migrate(
		func() error { _, err := MigrateOnDemandSource(src, w.src, w.connSrc); return err },
		func() error { _, err := MigrateOnDemandDest(dst, w.dst, w.connDst, release); return err })
}

// readAfterResume arms an on-demand migration's configs to read blocks
// through the destination's gate, one at a time, once the source has seen
// RESUMED (so RESUMED and the first PULL_REQUEST cannot swap places on the
// wire). The returned channel is closed when the last read is done.
func readAfterResume(w *world, src, dst *Config, blocks ...int) <-chan struct{} {
	gateCh := make(chan *blkback.PostCopyGate, 1)
	dst.OnResume = func(g *blkback.PostCopyGate) { gateCh <- g }
	resumed := make(chan struct{})
	src.OnEvent = ChainEvents(src.OnEvent, func(ev Event) {
		if ev.Kind == EventResumed {
			close(resumed)
		}
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-resumed
		gate := <-gateCh
		buf := make([]byte, blockdev.BlockSize)
		for _, n := range blocks {
			if err := gate.Submit(blockdev.Request{Op: blockdev.Read, Block: n, Domain: testDomain, Data: buf}); err != nil {
				w.t.Errorf("on-demand read %d: %v", n, err)
			}
		}
	}()
	return done
}

// runTracedDelta submits a fixed write script through the forwarder from the
// engine's own goroutine, at three fixed points of the pipeline, so every
// DELTA frame has one possible place in the source's send order.
func runTracedDelta(t *testing.T, w *world, src, dst Config) {
	fwd := NewDeltaForwarder(w.src.Backend, w.connSrc)
	w.router = NewRouter(fwd.Submit)
	write := func(blocks ...int) {
		buf := make([]byte, blockdev.BlockSize)
		for _, n := range blocks {
			if err := w.shadow.Submit(blockdev.Request{Op: blockdev.Write, Block: n, Domain: testDomain, Data: buf}); err != nil {
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
	w.migrate(
		func() error { _, err := MigrateDeltaSource(src, w.src, w.connSrc, fwd); return err },
		func() (err error) { res, err = MigrateDeltaDest(dst, w.dst, w.connDst); return err })
	if res.Report.StalePushes != 3 { // 5 three times, 9 twice
		t.Errorf("%d redundant deltas, want 3", res.Report.StalePushes)
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
	{"tpm", func(t *testing.T, w *world, src, dst Config) { w.tpm(src, dst, nil) }, tpmSrcEvents, tpmDstEvents},
	{"tpm_compressed", func(t *testing.T, w *world, src, dst Config) {
		src.CompressLevel, src.Workers = 1, 1
		w.tpm(src, dst, nil)
	}, tpmSrcEvents, tpmDstEvents},
	{"im", runTracedIM, tpmSrcEvents, tpmDstEvents},
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
			w := traced(t)
			var srcEvs, dstEvs collectEvents
			sc.run(t, w, Config{OnEvent: srcEvs.handle}, Config{OnEvent: dstEvs.handle})
			checkGolden(t, "wiretrace_"+sc.name+".golden", w.trace())
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
