package core

import (
	"sync"
	"testing"
	"time"

	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/delta"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

func TestTPMIdleVM(t *testing.T) {
	w := newWorld(t)
	rep, res := w.tpm(Config{}, Config{}, nil)
	if w.src.VM.State() != vm.Stopped {
		t.Fatal("source VM not stopped after migration")
	}
	if w.dst.VM.State() != vm.Running {
		t.Fatal("destination VM not running")
	}
	if got := rep.DiskIterationCount(); got != 1 {
		t.Fatalf("idle VM took %d disk iterations, want 1", got)
	}
	if rep.DiskIterations[0].Units != testBlocks {
		t.Fatalf("first iteration sent %d blocks, want %d", rep.DiskIterations[0].Units, testBlocks)
	}
	if rep.RetransferredBlocks() != 0 {
		t.Fatal("idle VM retransferred blocks")
	}
	if rep.Downtime <= 0 || rep.Downtime > rep.TotalTime {
		t.Fatalf("implausible downtime %v of %v total", rep.Downtime, rep.TotalTime)
	}
	if rep.MigratedBytes < blockdev.Capacity(w.srcDisk) {
		t.Fatalf("migrated %d bytes < disk size", rep.MigratedBytes)
	}
	if res.Gate == nil || !res.Gate.Synchronized() {
		t.Fatal("gate not synchronized")
	}
	if rep.Scheme != "TPM" {
		t.Fatalf("scheme %q", rep.Scheme)
	}
}

func TestTPMUnderWorkload(t *testing.T) {
	w := newWorld(t)
	g := w.startGuest(workload.NewWebServer(testBlocks, 11), 200, 32, nil)
	rep, res := w.tpm(Config{OnFreeze: g.freeze}, Config{}, nil)
	// Let the workload run on the destination a little, then stop it: its
	// writes through the gate must land as the shadow recorded them.
	time.Sleep(100 * time.Millisecond)
	g.stop()
	w.checkConverged()
	if rep.DiskIterationCount() < 1 {
		t.Fatal("no disk iterations")
	}
	// The workload keeps writing after resume: those writes are new state
	// on the destination, tracked for IM.
	if res.Gate.FreshBitmap().Count() == 0 {
		t.Log("note: no post-resume writes landed during the test window")
	}
}

// TestTPMForcedPostCopyPull forces blocks to stay dirty at freeze and makes
// the destination VM read one immediately, exercising the pull path
// end-to-end.
func TestTPMForcedPostCopyPull(t *testing.T) {
	w := newWorld(t)
	// Dirty a contiguous range at the end of the first disk iteration, after
	// the stop rule has counted the (empty) dirty set, so pre-copy ends there
	// and all of it rides the freeze bitmap; then read the highest-numbered
	// dirty block the instant the VM resumes: the push stream proceeds in
	// ascending order, so that block is still dirty and the read must pull it.
	const loDirty, hiDirty = 1000, 1300
	const hotBlock = hiDirty - 1
	// The hot read runs beside OnResume, which cannot return until the read
	// has registered its pull: pulled carries its outcome back.
	pulled := make(chan error, 1)
	src := Config{
		OnEvent: func(ev Event) {
			if ev.Kind != EventIterationEnd || ev.Phase != PhaseDiskPreCopy || ev.Iteration != 1 {
				return
			}
			buf := make([]byte, blockdev.BlockSize)
			for n := loDirty; n < hiDirty; n++ {
				if err := w.shadow.Submit(blockdev.Request{Op: blockdev.Write, Block: n, Domain: testDomain, Data: buf}); err != nil {
					t.Errorf("dirty write %d: %v", n, err)
					return
				}
			}
		},
		OnFreeze: w.router.Freeze,
	}
	dst := Config{OnResume: func(g *blkback.PostCopyGate) {
		w.router.ResumeGate(g)
		// At this instant no pushed block has been processed (the
		// destination's post-copy receive loop starts after OnResume returns,
		// and the source only starts pushing once it sees MsgResumed), so the
		// block is dirty and the read MUST pull. Block OnResume until the pull
		// request is registered to make that deterministic.
		go func() {
			pulled <- w.shadow.Submit(blockdev.Request{Op: blockdev.Read, Block: hotBlock, Domain: testDomain, Data: make([]byte, blockdev.BlockSize)})
		}()
		for g.Stats().Pulls == 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}}
	rep, res := w.tpm(src, dst, nil)
	if err := <-pulled; err != nil {
		t.Fatal(err)
	}
	if len(rep.DiskIterations) != 1 {
		t.Fatalf("%d disk iterations, want the one the writes followed", len(rep.DiskIterations))
	}
	// The dirtied range must have been synchronized in post-copy.
	if rep.BlocksPushed+rep.BlocksPulled == 0 {
		t.Fatal("nothing synchronized in post-copy despite dirty blocks")
	}
	if res.Report.BlocksPulled == 0 {
		t.Fatal("the forced read did not pull")
	}
	if res.Report.ReadStallTime < 0 {
		t.Fatal("negative read stall")
	}
}

func TestIMRoundTrip(t *testing.T) {
	w := newWorld(t)
	// Forward migration under load.
	g := w.startGuest(workload.NewWebServer(testBlocks, 21), 200, 0, nil)
	repFwd, res := w.tpm(Config{}, Config{}, nil)
	// Keep working on the destination so IM has something to carry back.
	time.Sleep(50 * time.Millisecond)
	g.stop()
	w.checkConverged()

	// Migrate back: B is now the source. Writes since the resume live in
	// the gate's fresh bitmap; A's old disk is the stale peer copy.
	repBack, _ := w.reverse(worldSpec{}).tpm(Config{}, Config{}, res.Gate.FreshBitmap())
	// The incremental migration must be drastically cheaper than primary.
	if repBack.Scheme != "IM" {
		t.Fatalf("backward scheme %q", repBack.Scheme)
	}
	if repBack.MigratedBytes >= repFwd.MigratedBytes/2 {
		t.Fatalf("IM moved %d bytes, primary %d — not incremental", repBack.MigratedBytes, repFwd.MigratedBytes)
	}
	// The disk component is where IM wins (memory is re-sent in full either
	// way; at paper scale disk ≫ memory, so the total shrinks ~100x).
	diskBytes := func(r *metrics.Report) int64 {
		var total int64
		for _, it := range r.DiskIterations {
			total += it.Bytes
		}
		return total
	}
	if diskBytes(repBack) >= diskBytes(repFwd)/4 {
		t.Fatalf("IM disk bytes %d vs primary %d — not incremental", diskBytes(repBack), diskBytes(repFwd))
	}
	if repBack.DiskIterations[0].Units >= testBlocks/4 {
		t.Fatalf("IM first iteration sent %d blocks", repBack.DiskIterations[0].Units)
	}
}

func TestTPMBandwidthLimit(t *testing.T) {
	w := newWorld(t)
	start := time.Now()
	// 8 MiB disk at 32 MiB/s ≥ ~250 ms; unlimited would finish in ~50 ms.
	cfg := Config{BandwidthLimit: 32 << 20}
	rep, _ := w.tpm(cfg, cfg, nil)
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Fatalf("rate-limited migration finished in %v — cap not applied", elapsed)
	}
	// Downtime must NOT be throttled: the freeze transfer is tiny.
	if rep.Downtime > elapsed/2 {
		t.Fatalf("downtime %v dominated by the bandwidth cap", rep.Downtime)
	}
}

func TestTPMGeometryMismatch(t *testing.T) {
	w := newWorld(t)
	w.dst.Backend = blkbackNew(testBlocks + 1)
	_, _, srcErr, dstErr := w.tpmPair(Config{}, Config{}, nil)
	if dstErr == nil {
		t.Fatal("destination accepted mismatched geometry")
	}
	if srcErr == nil {
		t.Fatal("source did not observe the abort")
	}
}

func TestTPMOverTCP(t *testing.T) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	overTCP := func(transport.Conn, transport.Conn) (transport.Conn, transport.Conn) {
		accepted := make(chan transport.Conn, 1)
		go func() {
			c, err := transport.Accept(l)
			if err != nil {
				t.Error(err)
			}
			accepted <- c
		}()
		client, err := transport.Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		server := <-accepted
		if server == nil {
			t.Fatal("accept failed")
		}
		return client, server
	}
	newWorld(t, worldSpec{link: overTCP}).tpm(Config{}, Config{}, nil)
}

func TestFreezeAndCopyBaseline(t *testing.T) {
	w := newWorld(t)
	var rep *metrics.Report
	w.migrate(
		func() (err error) {
			rep, err = MigrateFreezeAndCopySource(Config{OnFreeze: w.router.Freeze}, w.src, w.connSrc)
			return err
		},
		func() error { _, err := MigrateFreezeAndCopyDest(Config{}, w.dst, w.connDst); return err })
	if w.dst.VM.State() != vm.Running {
		t.Fatal("destination not running")
	}
	// The defining defect: downtime is essentially the whole migration.
	if rep.Downtime < rep.TotalTime/2 {
		t.Fatalf("freeze-and-copy downtime %v vs total %v — should dominate", rep.Downtime, rep.TotalTime)
	}
	if rep.Scheme != "freeze-and-copy" {
		t.Fatalf("scheme %q", rep.Scheme)
	}
	// Each iteration times its own pass: the memory pass does not book the
	// disk pass the freeze ran before it.
	var sum time.Duration
	for _, its := range [][]metrics.Iteration{rep.DiskIterations, rep.MemIterations} {
		for _, it := range its {
			sum += it.Duration
		}
	}
	if sum > rep.TotalTime {
		t.Fatalf("iterations sum to %v, more than the migration's %v", sum, rep.TotalTime)
	}
}

// doneFirstConn holds the source's RESUME send until its reader has been
// handed the destination's DONE, so awaitResumed starts with RESUMED and
// DONE both latched and its select may take either first.
type doneFirstConn struct {
	transport.Conn
	once sync.Once
	done chan struct{}
}

func (c *doneFirstConn) Send(m transport.Message) error {
	err := c.Conn.Send(m)
	if err == nil && m.Type == transport.MsgResume {
		<-c.done
	}
	return err
}

func (c *doneFirstConn) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil || m.Type == transport.MsgDone {
		c.once.Do(func() { close(c.done) })
	}
	return m, err
}

// TestAwaitResumedWithDoneLatched pins PR 20's RESUMED latch: the read loop
// latches RESUMED before the DONE behind it, and when awaitResumed finds both
// it must take the resume whichever one its select picks. Each run is a coin
// flip for a source without the latch; twenty of them leave it no chance.
func TestAwaitResumedWithDoneLatched(t *testing.T) {
	for i := 0; i < 20; i++ {
		w := newWorld(t, worldSpec{blocks: 64})
		conn := &doneFirstConn{Conn: w.connSrc, done: make(chan struct{})}
		w.migrate(
			func() error { _, err := MigrateFreezeAndCopySource(Config{}, w.src, conn); return err },
			func() error { _, err := MigrateFreezeAndCopyDest(Config{}, w.dst, w.connDst); return err })
	}
}

func TestOnDemandBaseline(t *testing.T) {
	w := newWorld(t)
	w.partial = true
	resumed, release := make(chan struct{}), make(chan struct{})
	// The guest on the destination reads a handful of blocks: each must fault
	// and pull. Then the dependency is cut.
	go func() {
		defer close(release)
		<-resumed
		buf := make([]byte, blockdev.BlockSize)
		for _, n := range []int{0, 3, 9, 600} {
			if err := w.shadow.Submit(blockdev.Request{Op: blockdev.Read, Block: n, Domain: testDomain, Data: buf}); err != nil {
				t.Errorf("on-demand read %d: %v", n, err)
			}
		}
	}()
	cfg := Config{OnResume: func(g *blkback.PostCopyGate) {
		w.router.ResumeGate(g)
		close(resumed)
	}}
	var srcRep *metrics.Report
	var res *DestResult
	w.migrate(
		func() (err error) {
			srcRep, err = MigrateOnDemandSource(Config{OnFreeze: w.router.Freeze}, w.src, w.connSrc)
			return err
		},
		func() (err error) { res, err = MigrateOnDemandDest(cfg, w.dst, w.connDst, release); return err })
	if res.Report.ResidualDirty == 0 {
		t.Fatal("on-demand migration reported no residual dependency — it must")
	}
	if srcRep.BlocksPulled < 4 {
		t.Fatalf("source served %d pulls", srcRep.BlocksPulled)
	}
	// Availability argument (§II-B).
	if got := Availability(0.99); got <= 0.98 || got >= 0.9802 {
		t.Fatalf("Availability(0.99) = %v", got)
	}
}

// rewriter is a guest that rewrites blocks 0-7 in turn, one every 300 µs:
// the write locality that makes forwarded deltas redundant.
type rewriter struct{ i int }

func (g *rewriter) Name() string { return "rewrite-8" }
func (g *rewriter) Reset()       { g.i = 0 }
func (g *rewriter) Next() workload.Access {
	g.i++
	return workload.Access{At: time.Duration(g.i) * 300 * time.Microsecond, Op: blockdev.Write, Block: g.i % 8, Count: 1}
}

func TestDeltaForwardBaseline(t *testing.T) {
	w := newWorld(t)
	fwd := NewDeltaForwarder(w.src.Backend, w.connSrc)
	w.router = NewRouter(fwd.Submit)
	// The guest races the full-disk pass.
	g := w.startGuest(&rewriter{}, 1, 0, nil)
	src := Config{OnFreeze: func() {
		// Guarantee some writes were forwarded while the full-disk pass ran
		// before freezing (the guest may be descheduled on a loaded machine).
		for fwd.Deltas() < 20 { // >2 cycles of the 8-block writer: guarantees redundant deltas
			time.Sleep(time.Millisecond)
		}
		w.router.Freeze()
	}}
	dst := Config{OnResume: func(gate *blkback.PostCopyGate) {
		if gate != nil {
			t.Error("delta dest passed a gate")
		}
		w.router.ResumeAt(w.dst.Backend.Submit)
	}}
	var srcRep *metrics.Report
	var res *DestResult
	w.migrate(
		func() (err error) { srcRep, err = MigrateDeltaSource(src, w.src, w.connSrc, fwd); return err },
		func() (err error) { res, err = MigrateDeltaDest(dst, w.dst, w.connDst); return err })
	g.stop()
	if fwd.Deltas() == 0 {
		t.Fatal("no deltas forwarded")
	}
	// The paper's §IV-A-2 point: write locality produces redundant deltas.
	if res.Report.StalePushes == 0 {
		t.Fatalf("no redundant deltas despite rewrites (forwarded %d)", fwd.Deltas())
	}
	if srcRep.Scheme != "delta-forward" {
		t.Fatalf("scheme %q", srcRep.Scheme)
	}
	if res.Report.IOBlockedTime < 0 {
		t.Fatal("negative replay time")
	}
}

func TestRouterFreezeResume(t *testing.T) {
	dev := blockdev.NewMemDisk(8, blockdev.BlockSize)
	b := blkback.NewBackend(dev, 1)
	r := NewRouter(b.Submit)
	buf := make([]byte, blockdev.BlockSize)
	if err := r.Submit(blockdev.Request{Op: blockdev.Write, Block: 0, Domain: 1, Data: buf}); err != nil {
		t.Fatal(err)
	}
	r.Freeze()
	// Not a migration: the one request the frozen router must hold back
	// needs a goroutine of its own to be held in.
	done := make(chan error, 1)
	go func() {
		done <- r.Submit(blockdev.Request{Op: blockdev.Read, Block: 0, Domain: 1, Data: buf})
	}()
	select {
	case <-done:
		t.Fatal("request completed while frozen")
	case <-time.After(30 * time.Millisecond):
	}
	r.ResumeAt(b.Submit)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MaxExtentBlocks != DefaultMaxExtentBlocks || c.Workers != DefaultWorkers ||
		c.DeltaChunk != delta.DefaultChunk || c.RetryBackoff != DefaultRetryBackoff {
		t.Fatalf("defaults not applied: %+v", c)
	}
	c2 := Config{Workers: 7}.withDefaults()
	if c2.Workers != 7 {
		t.Fatal("explicit value overridden")
	}
}

// TestContinuePreCopyTruthTable pins the §IV-A-1 stop rule on its edges: the
// threshold is inclusive, the iteration budget ends the phase, a dirty set
// that stopped shrinking ends it from iteration 2 on, and the comparisons are
// on the fractional counts the simulator's models produce.
func TestContinuePreCopyTruthTable(t *testing.T) {
	for _, tc := range []struct {
		name        string
		iter, max   int
		dirty, prev float64
		threshold   int
		want        bool
	}{
		{"above threshold, shrinking", 2, 4, 65, 100, 64, true},
		{"at threshold", 2, 4, 64, 100, 64, false},
		{"below threshold", 2, 4, 10, 100, 64, false},
		{"budget spent", 4, 4, 1000, 5000, 64, false},
		{"budget not spent", 3, 4, 1000, 5000, 64, true},
		{"plateau", 2, 4, 1000, 1000, 64, false},
		{"growing", 3, 4, 1200, 1000, 64, false},
		{"iteration 1 exempt from the plateau", 1, 4, 1200, 1000, 64, true},
		{"iteration 1 still stops at the threshold", 1, 4, 64, 1000, 64, false},
		{"budget of one", 1, 1, 1200, 1000, 64, false},
		{"fractional dirty above threshold", 2, 30, 64.5, 100, 64, true},
		{"fractional plateau", 2, 30, 99.5, 99.25, 64, false},
		{"fractional shrink", 2, 30, 99.25, 99.5, 64, true},
	} {
		got := ContinuePreCopy(IterationStat{
			Iteration: tc.iter, MaxIterations: tc.max,
			Dirty: tc.dirty, PrevDirty: tc.prev, Threshold: tc.threshold,
		})
		if got != tc.want {
			t.Errorf("%s: ContinuePreCopy(iter %d/%d, dirty %v, prev %v, threshold %d) = %v, want %v",
				tc.name, tc.iter, tc.max, tc.dirty, tc.prev, tc.threshold, got, tc.want)
		}
	}
}
