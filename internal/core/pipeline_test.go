package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/transport"
)

// collectEvents is a concurrency-safe event recorder.
type collectEvents struct {
	mu  sync.Mutex
	evs []Event
}

func (c *collectEvents) handle(ev Event) {
	c.mu.Lock()
	c.evs = append(c.evs, ev)
	c.mu.Unlock()
}

func (c *collectEvents) all() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.evs...)
}

// kinds returns the event kinds in order, de-duplicating consecutive
// BytesTransferred heartbeats.
func (c *collectEvents) kinds() []EventKind {
	var out []EventKind
	for _, ev := range c.all() {
		if ev.Kind == EventBytesTransferred && len(out) > 0 && out[len(out)-1] == EventBytesTransferred {
			continue
		}
		out = append(out, ev.Kind)
	}
	return out
}

// TestEventStreamTPM verifies both endpoints announce the full phase
// pipeline in order, with iteration, suspend/resume, and terminal events.
func TestEventStreamTPM(t *testing.T) {
	var srcEvs, dstEvs collectEvents
	newWorld(t).tpm(Config{OnEvent: srcEvs.handle}, Config{OnEvent: dstEvs.handle}, nil)

	// Source: every phase in pipeline order, then completion.
	wantPhases := []string{PhaseHandshake, PhaseDiskPreCopy, PhaseMemPreCopy, PhaseFreezeCopy, PhasePostCopy}
	var srcPhases []string
	sawSuspend, sawResume, sawCompleted := false, false, false
	for _, ev := range srcEvs.all() {
		if ev.Side != "source" || ev.Scheme != "TPM" {
			t.Fatalf("source event carries %s/%s", ev.Scheme, ev.Side)
		}
		switch ev.Kind {
		case EventPhaseStart:
			srcPhases = append(srcPhases, ev.Phase)
		case EventSuspended:
			sawSuspend = true
		case EventResumed:
			sawResume = true
		case EventCompleted:
			sawCompleted = true
			if ev.Bytes <= 0 {
				t.Fatal("completion event carries no byte total")
			}
		case EventFailed:
			t.Fatalf("failure event on a successful run: %s", ev.Err)
		}
	}
	if strings.Join(srcPhases, ",") != strings.Join(wantPhases, ",") {
		t.Fatalf("source phases %v, want %v", srcPhases, wantPhases)
	}
	if !sawSuspend || !sawResume || !sawCompleted {
		t.Fatalf("source missing lifecycle events: suspend=%v resume=%v completed=%v", sawSuspend, sawResume, sawCompleted)
	}

	// Source iteration events must match the report's accounting.
	iters := 0
	for _, ev := range srcEvs.all() {
		if ev.Kind == EventIterationEnd && ev.Phase == PhaseDiskPreCopy {
			iters++
			if ev.Units != testBlocks {
				t.Fatalf("disk iteration event reports %d units, want %d", ev.Units, testBlocks)
			}
		}
	}
	if iters != 1 {
		t.Fatalf("%d disk iteration events for an idle VM, want 1", iters)
	}

	// Destination: pipeline announced, resume and completion seen.
	var dstPhases []string
	dstCompleted := false
	for _, ev := range dstEvs.all() {
		if ev.Kind == EventPhaseStart {
			dstPhases = append(dstPhases, ev.Phase)
		}
		if ev.Kind == EventCompleted {
			dstCompleted = true
		}
	}
	want := []string{PhaseHandshake, PhaseDiskPreCopy, PhasePostCopy}
	if strings.Join(dstPhases, ",") != strings.Join(want, ",") {
		t.Fatalf("dest phases %v, want %v", dstPhases, want)
	}
	if !dstCompleted {
		t.Fatal("destination never emitted completion")
	}
}

// TestProgressTracker folds a live event stream into snapshots and checks
// the mid-flight view: during the freeze the tracker must already report the
// phase and bytes moved.
func TestProgressTracker(t *testing.T) {
	w := newWorld(t)
	tracker := NewProgressTracker()
	var atFreeze Progress
	cfg := Config{
		OnEvent: tracker.Handle,
		OnFreeze: func() {
			atFreeze = tracker.Snapshot()
			w.router.Freeze()
		},
	}
	w.tpm(cfg, Config{}, nil)

	if atFreeze.Done {
		t.Fatal("tracker reported done at the freeze point")
	}
	if atFreeze.Phase != PhaseMemPreCopy && atFreeze.Phase != PhaseFreezeCopy {
		t.Fatalf("phase at freeze %q", atFreeze.Phase)
	}
	if atFreeze.BytesTransferred == 0 {
		t.Fatal("no bytes reported by the freeze point (8 MiB disk already moved)")
	}
	final := tracker.Snapshot()
	if !final.Done || final.Err != "" {
		t.Fatalf("final snapshot %+v", final)
	}
	if !final.Resumed || !final.Suspended {
		t.Fatalf("final snapshot missing lifecycle: %+v", final)
	}
}

// TestEventStreamFailure: a geometry mismatch must surface as EventFailed on
// the source.
func TestEventStreamFailure(t *testing.T) {
	w := newWorld(t)
	var evs collectEvents
	// Destination with a mismatched VBD: one block too many.
	w.dst.Backend = blkbackNew(testBlocks + 1)
	if _, _, srcErr, dstErr := w.tpmPair(Config{OnEvent: evs.handle}, Config{}, nil); srcErr == nil || dstErr == nil {
		t.Fatalf("source %v, destination %v: both must abort on mismatched geometry", srcErr, dstErr)
	}
	final := evs.all()
	if len(final) == 0 {
		t.Fatal("no events")
	}
	last := final[len(final)-1]
	if last.Kind != EventFailed || last.Err == "" {
		t.Fatalf("last source event %v (%q), want failure", last.Kind, last.Err)
	}
}

// blkbackNew returns a backend over a fresh MemDisk of n blocks.
func blkbackNew(n int) *blkback.Backend {
	return blkback.NewBackend(blockdev.NewMemDisk(n, blockdev.BlockSize), testDomain)
}

// TestEquivalenceAdaptivePolicy: the adaptive policy changes frame shapes,
// never data. The destination must converge byte-identically.
func TestEquivalenceAdaptivePolicy(t *testing.T) {
	cfg := Config{Policy: &AdaptivePolicy{}}
	rep, _ := newWorld(t).tpm(cfg, cfg, nil)
	if rep.DiskIterations[0].Units != testBlocks {
		t.Fatalf("first iteration sent %d blocks, want %d", rep.DiskIterations[0].Units, testBlocks)
	}
}

// TestAdaptiveBeatsDefaultOnModeledLink is the acceptance benchmark scenario
// as a test: on a link with a 100 µs per-frame stall, the adaptive policy's
// extent growth must finish the same migration well ahead of the fixed
// default (which pays the stall once per 4 KiB block).
func TestAdaptiveBeatsDefaultOnModeledLink(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const stall = 100 * time.Microsecond
	// Every frame pays a per-message stall: the latency-bound link shape the
	// adaptive policy exists for.
	modeled := func(transport.Conn, transport.Conn) (transport.Conn, transport.Conn) {
		a, b := transport.NewPipe(256)
		return transport.NewWAN(a, stall, 0), transport.NewWAN(b, stall, 0)
	}
	run := func(pol Policy) time.Duration { // the source's own clock: the runner's checks are not the migration
		rep, _ := newWorld(t, worldSpec{link: modeled}).tpm(Config{Policy: pol}, Config{Policy: pol}, nil)
		return rep.TotalTime
	}
	fixed := run(nil) // DefaultPolicy, extent 1: one stall per block
	adaptive := run(&AdaptivePolicy{})
	t.Logf("modeled link (%v/frame): default %v, adaptive %v", stall, fixed, adaptive)
	if adaptive*2 >= fixed {
		t.Fatalf("adaptive policy (%v) did not clearly beat the fixed default (%v) on a latency-bound link", adaptive, fixed)
	}
}

// TestAdaptivePolicyExtentGrowth drives the policy directly: full extents at
// healthy throughput must grow the limit; a rate collapse must shrink it.
func TestAdaptivePolicyExtentGrowth(t *testing.T) {
	p := &AdaptivePolicy{}
	if got := p.ExtentBlocks(1); got != 1 {
		t.Fatalf("initial extent %d, want the configured 1", got)
	}
	for i := 0; i < 64; i++ {
		cur := p.ExtentBlocks(1)
		p.ObserveExtent(cur, int64(cur*4096), time.Duration(cur)*time.Microsecond)
	}
	grown := p.ExtentBlocks(1)
	if grown < 16 {
		t.Fatalf("extent failed to grow under healthy throughput: %d", grown)
	}
	// Collapse: full extent, terrible rate.
	p.ObserveExtent(grown, int64(grown*4096), 10*time.Second)
	if shrunk := p.ExtentBlocks(1); shrunk >= grown {
		t.Fatalf("extent did not shrink after a rate collapse: %d -> %d", grown, shrunk)
	}
}

// TestCompressLevelConfig migrates with engine-owned stream compression on
// both ends and verifies convergence plus an actual wire-byte saving on the
// zero-heavy disk.
func TestCompressLevelConfig(t *testing.T) {
	for _, pol := range []struct {
		name string
		p    Policy
	}{{"default", nil}, {"adaptive", &AdaptivePolicy{}}} {
		t.Run(pol.name, func(t *testing.T) {
			cfg := Config{CompressLevel: 6, Policy: pol.p}
			rep, _ := newWorld(t).tpm(cfg, cfg, nil)
			uncompressed := int64(testBlocks)*4096 + int64(testPages)*4096
			if rep.MigratedBytes >= uncompressed {
				t.Fatalf("compressed migration moved %d wire bytes, more than the %d raw payload", rep.MigratedBytes, uncompressed)
			}
		})
	}
}
