package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/clock"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

func clockReal() clock.Clock { return clock.NewReal() }

const (
	testBlocks = 2048 // 8 MiB disk
	testPages  = 256  // 1 MiB memory
	testDomain = 1
)

// env is a two-host world: a running source VM with a pattern-filled disk, a
// prepared destination, an I/O router, and a shadow disk receiving the exact
// write stream for consistency checking.
type env struct {
	t                *testing.T
	srcDisk, dstDisk *blockdev.MemDisk
	shadow           *blockdev.MemDisk
	src, dst         Host
	router           *Router
	connSrc, connDst transport.Conn

	mu  sync.Mutex
	gen map[int]uint32 // per-block write generation (shadow truth)
}

func newEnv(t *testing.T) *env {
	t.Helper()
	e := &env{
		t:       t,
		srcDisk: blockdev.NewMemDisk(testBlocks, blockdev.BlockSize),
		dstDisk: blockdev.NewMemDisk(testBlocks, blockdev.BlockSize),
		shadow:  blockdev.NewMemDisk(testBlocks, blockdev.BlockSize),
		gen:     make(map[int]uint32),
	}
	// initial disk image: every 3rd block pre-filled
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < testBlocks; n += 3 {
		workload.FillBlock(buf, n, 0)
		if err := e.srcDisk.WriteBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if err := e.shadow.WriteBlock(n, buf); err != nil {
			t.Fatal(err)
		}
	}
	srcVM := vm.New("guest", testDomain, testPages, 512)
	// initial memory image
	for p := 0; p < testPages; p += 2 {
		workload.FillBlock(buf, p+100000, 0)
		if err := srcVM.Memory().WritePage(p, buf[:vm.PageSize]); err != nil {
			t.Fatal(err)
		}
	}
	dstVM := vm.NewDestination(srcVM)
	e.src = Host{VM: srcVM, Backend: blkback.NewBackend(e.srcDisk, testDomain)}
	e.dst = Host{VM: dstVM, Backend: blkback.NewBackend(e.dstDisk, testDomain)}
	e.router = NewRouter(e.src.Backend.Submit)
	e.connSrc, e.connDst = transport.NewPipe(64)
	return e
}

// submitVerified routes a request through the router, mirrors writes into
// the shadow disk, and cross-checks read contents against the latest
// generation — a read returning stale data fails the test immediately.
func (e *env) submitVerified(req blockdev.Request) error {
	if req.Op == blockdev.Write {
		e.mu.Lock()
		// Replay fills Data before calling us; recover the generation from
		// our own counter to keep the shadow in lockstep.
		e.gen[req.Block]++
		g := e.gen[req.Block]
		e.mu.Unlock()
		workload.FillBlock(req.Data, req.Block, g)
		if err := e.router.Submit(req); err != nil {
			return err
		}
		return e.shadow.WriteBlock(req.Block, req.Data)
	}
	if err := e.router.Submit(req); err != nil {
		return err
	}
	e.mu.Lock()
	g, written := e.gen[req.Block]
	e.mu.Unlock()
	if written {
		want := make([]byte, blockdev.BlockSize)
		workload.FillBlock(want, req.Block, g)
		if !bytes.Equal(req.Data, want) {
			return fmt.Errorf("stale read of block %d (generation %d)", req.Block, g)
		}
	}
	return nil
}

// checkConverged verifies the destination disk equals the shadow truth and
// the memories and CPU state transferred intact.
func (e *env) checkConverged(cpu vm.CPUState) {
	e.t.Helper()
	diffs, err := blockdev.Diff(e.dstDisk, e.shadow)
	if err != nil {
		e.t.Fatal(err)
	}
	if len(diffs) != 0 {
		e.t.Fatalf("destination disk differs from truth at %d blocks (first: %v)", len(diffs), diffs[0])
	}
	srcMem, dstMem := e.src.VM.Memory(), e.dst.VM.Memory()
	a := make([]byte, vm.PageSize)
	b := make([]byte, vm.PageSize)
	for p := 0; p < testPages; p++ {
		srcMem.ReadPage(p, a)
		dstMem.ReadPage(p, b)
		if !bytes.Equal(a, b) {
			e.t.Fatalf("memory page %d differs", p)
		}
	}
	if !cpu.Equal(e.src.VM.CPU()) {
		e.t.Fatal("CPU state corrupted in transit")
	}
}

// runTPM executes a full TPM migration with the standard hook wiring and
// returns both reports.
func (e *env) runTPM(cfg Config, initial *bitmap.Bitmap) (*metrics.Report, *DestResult) {
	e.t.Helper()
	if cfg.OnFreeze == nil {
		cfg.OnFreeze = e.router.Freeze
	}
	if cfg.OnResume == nil {
		cfg.OnResume = e.router.ResumeGate
	}
	type srcOut struct {
		rep *metrics.Report
		err error
	}
	srcCh := make(chan srcOut, 1)
	go func() {
		rep, err := MigrateSource(cfg, e.src, e.connSrc, initial)
		srcCh <- srcOut{rep, err}
	}()
	res, err := MigrateDest(cfg, e.dst, e.connDst)
	if err != nil {
		e.t.Fatalf("destination: %v", err)
	}
	out := <-srcCh
	if out.err != nil {
		e.t.Fatalf("source: %v", out.err)
	}
	return out.rep, res
}

func TestTPMIdleVM(t *testing.T) {
	e := newEnv(t)
	rep, res := e.runTPM(Config{}, nil)
	e.checkConverged(res.CPU)
	if e.src.VM.State() != vm.Stopped {
		t.Fatal("source VM not stopped after migration")
	}
	if e.dst.VM.State() != vm.Running {
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
	if rep.MigratedBytes < blockdev.Capacity(e.srcDisk) {
		t.Fatalf("migrated %d bytes < disk size", rep.MigratedBytes)
	}
	if res.Gate == nil || !res.Gate.Synchronized() {
		t.Fatal("gate not synchronized")
	}
	if rep.Scheme != "TPM" {
		t.Fatalf("scheme %q", rep.Scheme)
	}
}

// startMemDirtier churns guest memory pages, standing in for the running
// guest's memory writes, until the returned stop is called. stop returns
// only once the last write has landed: a page written after the freeze
// captured the dirty set would never travel.
func startMemDirtier(mem *vm.Memory, hot int) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, vm.PageSize)
		for i := uint32(0); ; i++ {
			select {
			case <-quit:
				return
			default:
			}
			p := int(i) % hot
			workload.FillBlock(buf, p+200000, i)
			mem.WritePage(p, buf)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

func TestTPMUnderWorkload(t *testing.T) {
	e := newEnv(t)
	gen := workload.NewWebServer(testBlocks, 11)
	stopIO := make(chan struct{})
	var replayErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, replayErr = workload.Replay(clockReal(), gen, testDomain, time.Hour, 200, e.submitVerified, stopIO)
	}()
	stopMem := startMemDirtier(e.src.VM.Memory(), 32)

	cfg := Config{
		OnFreeze: func() {
			stopMem() // guest pauses: memory writes stop
			e.router.Freeze()
		},
		OnResume: e.router.ResumeGate,
	}
	rep, res := e.runTPM(cfg, nil)

	// Let the workload run on the destination a little, then stop it.
	time.Sleep(100 * time.Millisecond)
	close(stopIO)
	wg.Wait()
	if replayErr != nil {
		t.Fatalf("workload: %v", replayErr)
	}
	e.checkConverged(res.CPU)
	if rep.DiskIterationCount() < 1 {
		t.Fatal("no disk iterations")
	}
	if !e.router.StallObserved() && rep.Downtime > 50*time.Millisecond {
		t.Log("note: no I/O stall observed despite downtime (bursty workload)")
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
	e := newEnv(t)
	// Dirty a contiguous range during the first (and only) pre-copy
	// iteration so it all rides the freeze bitmap, then read the
	// highest-numbered dirty block the instant the VM resumes: the push
	// stream proceeds in ascending order, so that block is still dirty and
	// the read must pull it.
	const loDirty, hiDirty = 1000, 1300
	const hotBlock = hiDirty - 1
	buf := make([]byte, blockdev.BlockSize)
	pulled := make(chan error, 1)
	writerDone := make(chan struct{})
	cfg := Config{
		MaxDiskIters: 1, // everything dirtied during iter1 rides the bitmap
		OnFreeze: func() {
			<-writerDone // all 300 dirty writes land before the freeze
			e.router.Freeze()
		},
		OnResume: func(g *blkback.PostCopyGate) {
			e.router.ResumeGate(g)
			// Read the hot block through the gate. At this instant no
			// pushed block has been processed (the destination's post-copy
			// receive loop starts after OnResume returns, and the source
			// only starts pushing once it sees MsgResumed), so the block is
			// guaranteed dirty and the read MUST pull. Block OnResume until
			// the pull request is registered to make that deterministic.
			go func() {
				rbuf := make([]byte, blockdev.BlockSize)
				err := g.Submit(blockdev.Request{Op: blockdev.Read, Block: hotBlock, Domain: testDomain, Data: rbuf})
				if err == nil {
					want := make([]byte, blockdev.BlockSize)
					workload.FillBlock(want, hotBlock, 9)
					if !bytes.Equal(rbuf, want) {
						err = fmt.Errorf("pulled read returned stale data")
					}
				}
				pulled <- err
			}()
			for g.Stats().Pulls == 0 {
				time.Sleep(100 * time.Microsecond)
			}
		},
	}
	// Dirty the range after tracking starts, from a goroutine that waits
	// for tracking to engage.
	go func() {
		defer close(writerDone)
		for !e.src.Backend.Tracking() {
			time.Sleep(time.Millisecond)
		}
		for n := loDirty; n < hiDirty; n++ {
			workload.FillBlock(buf, n, 9)
			if err := e.router.Submit(blockdev.Request{Op: blockdev.Write, Block: n, Domain: testDomain, Data: buf}); err != nil {
				t.Errorf("dirty write %d: %v", n, err)
				return
			}
			e.shadow.WriteBlock(n, buf)
		}
	}()
	rep, res := e.runTPM(cfg, nil)
	if err := <-pulled; err != nil {
		t.Fatal(err)
	}
	e.checkConverged(res.CPU)
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
	e := newEnv(t)
	// Forward migration under load.
	gen := workload.NewWebServer(testBlocks, 21)
	stopIO := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var replayErr error
	go func() {
		defer wg.Done()
		_, replayErr = workload.Replay(clockReal(), gen, testDomain, time.Hour, 200, e.submitVerified, stopIO)
	}()
	repFwd, res := e.runTPM(Config{}, nil)

	// Keep working on the destination so IM has something to carry back.
	time.Sleep(50 * time.Millisecond)
	close(stopIO)
	wg.Wait()
	if replayErr != nil {
		t.Fatalf("workload: %v", replayErr)
	}

	// Migrate back: B is now the source. Writes since the resume live in
	// the gate's fresh bitmap.
	fresh := res.Gate.FreshBitmap()
	backSrcVM := e.dst.VM // running on B
	backDstVM := vm.NewDestination(backSrcVM)
	// A's old disk contents are still in place; only fresh blocks differ.
	backSrc := Host{VM: backSrcVM, Backend: blkback.NewBackend(e.dstDisk, testDomain)}
	backDst := Host{VM: backDstVM, Backend: blkback.NewBackend(e.srcDisk, testDomain)}
	backSrc.Backend.SeedDirty(fresh)
	router2 := NewRouter(backSrc.Backend.Submit)
	c1, c2 := transport.NewPipe(64)
	cfg := Config{OnFreeze: router2.Freeze, OnResume: router2.ResumeGate}
	srcCh := make(chan error, 1)
	var repBack *metrics.Report
	go func() {
		var err error
		repBack, err = MigrateSource(cfg, backSrc, c1, backSrc.Backend.SwapDirty())
		srcCh <- err
	}()
	resBack, err := MigrateDest(cfg, backDst, c2)
	if err != nil {
		t.Fatalf("backward destination: %v", err)
	}
	if err := <-srcCh; err != nil {
		t.Fatalf("backward source: %v", err)
	}

	// A's disk must now equal the shadow truth again.
	diffs, err := blockdev.Diff(e.srcDisk, e.shadow)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("after IM back, source disk differs at %d blocks", len(diffs))
	}
	if !resBack.CPU.Equal(backSrcVM.CPU()) {
		t.Fatal("CPU state lost on the way back")
	}
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
	e := newEnv(t)
	start := time.Now()
	// 8 MiB disk at 32 MiB/s ≥ ~250 ms; unlimited would finish in ~50 ms.
	rep, res := e.runTPM(Config{BandwidthLimit: 32 << 20}, nil)
	elapsed := time.Since(start)
	e.checkConverged(res.CPU)
	if elapsed < 150*time.Millisecond {
		t.Fatalf("rate-limited migration finished in %v — cap not applied", elapsed)
	}
	// Downtime must NOT be throttled: the freeze transfer is tiny.
	if rep.Downtime > elapsed/2 {
		t.Fatalf("downtime %v dominated by the bandwidth cap", rep.Downtime)
	}
}

func TestTPMGeometryMismatch(t *testing.T) {
	e := newEnv(t)
	wrongDisk := blockdev.NewMemDisk(testBlocks+1, blockdev.BlockSize)
	e.dst.Backend = blkback.NewBackend(wrongDisk, testDomain)
	srcCh := make(chan error, 1)
	go func() {
		_, err := MigrateSource(Config{}, e.src, e.connSrc, nil)
		srcCh <- err
	}()
	if _, err := MigrateDest(Config{}, e.dst, e.connDst); err == nil {
		t.Fatal("destination accepted mismatched geometry")
	}
	if err := <-srcCh; err == nil {
		t.Fatal("source did not observe the abort")
	}
}

func TestTPMOverTCP(t *testing.T) {
	e := newEnv(t)
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accCh := make(chan transport.Conn, 1)
	go func() {
		c, err := transport.Accept(l)
		if err != nil {
			t.Error(err)
			close(accCh)
			return
		}
		accCh <- c
	}()
	client, err := transport.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, ok := <-accCh
	if !ok {
		t.Fatal("accept failed")
	}
	e.connSrc, e.connDst = client, server
	defer client.Close()
	defer server.Close()
	_, res := e.runTPM(Config{}, nil)
	e.checkConverged(res.CPU)
}

func TestFreezeAndCopyBaseline(t *testing.T) {
	e := newEnv(t)
	srcCh := make(chan error, 1)
	var rep *metrics.Report
	go func() {
		var err error
		rep, err = MigrateFreezeAndCopySource(Config{OnFreeze: e.router.Freeze}, e.src, e.connSrc)
		srcCh <- err
	}()
	res, err := MigrateFreezeAndCopyDest(Config{}, e.dst, e.connDst)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-srcCh; err != nil {
		t.Fatal(err)
	}
	e.checkConverged(res.CPU)
	if e.dst.VM.State() != vm.Running {
		t.Fatal("destination not running")
	}
	// The defining defect: downtime is essentially the whole migration.
	if rep.Downtime < rep.TotalTime/2 {
		t.Fatalf("freeze-and-copy downtime %v vs total %v — should dominate", rep.Downtime, rep.TotalTime)
	}
	if rep.Scheme != "freeze-and-copy" {
		t.Fatalf("scheme %q", rep.Scheme)
	}
}

func TestOnDemandBaseline(t *testing.T) {
	e := newEnv(t)
	release := make(chan struct{})
	srcCh := make(chan error, 1)
	var srcRep *metrics.Report
	go func() {
		var err error
		srcRep, err = MigrateOnDemandSource(Config{OnFreeze: e.router.Freeze}, e.src, e.connSrc)
		srcCh <- err
	}()
	var gate *blkback.PostCopyGate
	gateReady := make(chan struct{})
	cfg := Config{OnResume: func(g *blkback.PostCopyGate) {
		gate = g
		e.router.ResumeGate(g)
		close(gateReady)
	}}
	dstCh := make(chan error, 1)
	var res *DestResult
	go func() {
		var err error
		res, err = MigrateOnDemandDest(cfg, e.dst, e.connDst, release)
		dstCh <- err
	}()
	<-gateReady
	// Read a handful of blocks on the destination: each must fault and pull.
	buf := make([]byte, blockdev.BlockSize)
	for _, n := range []int{0, 3, 9, 600} {
		if err := gate.Submit(blockdev.Request{Op: blockdev.Read, Block: n, Domain: testDomain, Data: buf}); err != nil {
			t.Fatalf("on-demand read %d: %v", n, err)
		}
		want := make([]byte, blockdev.BlockSize)
		if n%3 == 0 {
			workload.FillBlock(want, n, 0)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("on-demand read %d returned wrong data", n)
		}
	}
	close(release)
	if err := <-dstCh; err != nil {
		t.Fatal(err)
	}
	if err := <-srcCh; err != nil {
		t.Fatal(err)
	}
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

func TestDeltaForwardBaseline(t *testing.T) {
	e := newEnv(t)
	fwd := NewDeltaForwarder(e.src.Backend, e.connSrc)
	e.router = NewRouter(fwd.Submit)
	resumed := make(chan struct{})
	cfgSrc := Config{OnFreeze: func() {
		// Guarantee some writes were forwarded while the full-disk pass
		// ran before freezing (the workload goroutine may be descheduled
		// on a loaded machine).
		for fwd.Deltas() < 20 { // >2 cycles of the 8-block writer: guarantees redundant deltas
			time.Sleep(time.Millisecond)
		}
		e.router.Freeze()
	}}
	cfgDst := Config{OnResume: func(g *blkback.PostCopyGate) {
		if g != nil {
			t.Error("delta dest passed a gate")
		}
		e.router.ResumeAt(e.dst.Backend.Submit)
		close(resumed)
	}}
	// workload: rewrite the same few blocks repeatedly to force redundant
	// deltas, racing the full-disk pass.
	stopIO := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, blockdev.BlockSize)
		i := uint32(0)
		for {
			select {
			case <-stopIO:
				return
			default:
			}
			n := int(i) % 8
			e.mu.Lock()
			e.gen[n]++
			g := e.gen[n]
			e.mu.Unlock()
			workload.FillBlock(buf, n, g)
			if err := e.router.Submit(blockdev.Request{Op: blockdev.Write, Block: n, Domain: testDomain, Data: buf}); err != nil {
				t.Error(err)
				return
			}
			e.shadow.WriteBlock(n, buf)
			i++
			time.Sleep(300 * time.Microsecond)
		}
	}()

	srcCh := make(chan error, 1)
	var srcRep *metrics.Report
	go func() {
		var err error
		srcRep, err = MigrateDeltaSource(cfgSrc, e.src, e.connSrc, fwd)
		srcCh <- err
	}()
	res, err := MigrateDeltaDest(cfgDst, e.dst, e.connDst)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-srcCh; err != nil {
		t.Fatal(err)
	}
	<-resumed
	close(stopIO)
	wg.Wait()
	e.checkConverged(res.CPU)
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
	if !r.StallObserved() {
		t.Fatal("stall not recorded")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Clock == nil || c.MaxDiskIters != DefaultMaxDiskIters ||
		c.DiskDirtyThreshold != DefaultDiskDirtyThreshold ||
		c.MaxMemIters != DefaultMaxMemIters || c.MemDirtyThreshold != DefaultMemDirtyThreshold {
		t.Fatalf("defaults not applied: %+v", c)
	}
	c2 := Config{MaxDiskIters: 7}.withDefaults()
	if c2.MaxDiskIters != 7 {
		t.Fatal("explicit value overridden")
	}
}
