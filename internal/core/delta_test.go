package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// backReports pairs the two ends' reports of one return-trip migration.
type backReports struct {
	src *metrics.Report
	dst *metrics.Report
}

// hotRewrite diverges the destination disk the way a warm workload does:
// each listed block keeps most of its content and gets a small in-place
// rewrite — the divergence shape exact-match dedup cannot exploit and delta
// encoding exists for. rewriteLen bytes at the block head change; the rest
// survives.
func hotRewrite(t *testing.T, disk *blockdev.MemDisk, blocks []int, rewriteLen int, salt uint32) {
	t.Helper()
	buf := make([]byte, blockdev.BlockSize)
	patch := make([]byte, blockdev.BlockSize)
	for _, n := range blocks {
		if err := disk.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		workload.FillBlock(patch, n+50000, salt)
		copy(buf[:rewriteLen], patch)
		if err := disk.WriteBlock(n, buf); err != nil {
			t.Fatal(err)
		}
	}
}

// migrateBack runs the incremental return trip of the env's world — the
// destination's current disk travels back onto the (stale) source disk —
// and returns the source report. The caller is responsible for having
// diverged e.dstDisk first. wrap, when non-nil, decorates each side's conn.
func (e *env) migrateBack(t *testing.T, cfg Config, fresh *bitmap.Bitmap, wrap func(transport.Conn) transport.Conn) *backReports {
	t.Helper()
	backSrcVM := e.dst.VM
	backDstVM := vm.NewDestination(backSrcVM)
	backSrc := Host{VM: backSrcVM, Backend: blkback.NewBackend(e.dstDisk, testDomain)}
	backDst := Host{VM: backDstVM, Backend: blkback.NewBackend(e.srcDisk, testDomain)}
	backSrc.Backend.SeedDirty(fresh)
	router2 := NewRouter(backSrc.Backend.Submit)
	c1, c2 := transport.NewPipe(64)
	var sc, dc transport.Conn = c1, c2
	if wrap != nil {
		sc, dc = wrap(sc), wrap(dc)
	}
	cfg.OnFreeze = router2.Freeze
	cfg.OnResume = router2.ResumeGate
	type out struct {
		rep *metrics.Report
		err error
	}
	srcCh := make(chan out, 1)
	go func() {
		rep, err := MigrateSource(cfg, backSrc, sc, backSrc.Backend.SwapDirty())
		srcCh <- out{rep, err}
	}()
	dres, derr := MigrateDest(cfg, backDst, dc)
	if derr != nil {
		t.Fatalf("IM destination: %v", derr)
	}
	o := <-srcCh
	if o.err != nil {
		t.Fatalf("IM source: %v", o.err)
	}
	return &backReports{src: o.rep, dst: dres.Report}
}

// TestDeltaTPMConvergence runs delta-negotiated primary migrations under
// the transfer shapes delta must compose with — coalescing, compression, a
// striped bundle, and content dedup — requiring byte-identical convergence
// each time. The fresh destination is the cold-signature case: every
// signature summarizes zeros, so filled extents fall back to literals while
// the source's zero runs ride near-empty patches.
func TestDeltaTPMConvergence(t *testing.T) {
	cases := []struct {
		name        string
		cfg         Config
		wantPatches bool
	}{
		{"coalesced16", Config{Delta: true, MaxExtentBlocks: 16}, true},
		{"compressed", Config{Delta: true, MaxExtentBlocks: 16, CompressLevel: -1}, true},
		{"striped4", Config{Delta: true, MaxExtentBlocks: 16, Streams: 4}, true},
		// With dedup also on, a cold primary migration has nothing for delta
		// to win: zero runs are elided as references first and filled blocks
		// against a cold destination fall back to literals — the composition
		// must still converge. (The IM test exercises the composed win.)
		{"with-dedup", Config{Delta: true, Dedup: true, MaxExtentBlocks: 16}, false},
		{"chunk512", Config{Delta: true, MaxExtentBlocks: 16, DeltaChunk: 512}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			e.useStriped(tc.cfg.Streams)
			rep, res := e.runTPM(tc.cfg, nil)
			e.checkConverged(res.CPU)
			if tc.wantPatches && rep.DeltaBlocks == 0 {
				t.Fatal("no blocks travelled as patches")
			}
			if rep.DeltaBlocks != res.Report.DeltaBlocks {
				t.Fatalf("delta accounting: source %d, destination %d", rep.DeltaBlocks, res.Report.DeltaBlocks)
			}
		})
	}
}

// TestDeltaEquivalenceIM is the headline Table II scenario: after a primary
// migration, the destination rewrites a hot fraction of its blocks in place
// and migrates back incrementally. With delta negotiated the return trip
// must land the identical disk while moving several times fewer disk-phase
// wire bytes than the literal run — the hot rewrites travel as patches
// covering only the chunks that changed.
func TestDeltaEquivalenceIM(t *testing.T) {
	// ~25% of the disk, rewritten over the first 1/16th of each block.
	divergent := make([]int, 0, testBlocks/4)
	for n := 0; n < testBlocks; n += 4 {
		divergent = append(divergent, n)
	}
	run := func(backCfg Config) (diskWire int64, img []byte, srcPatched, dstPatched int) {
		e := newEnv(t)
		_, res := e.runTPM(Config{}, nil)
		e.checkConverged(res.CPU)
		hotRewrite(t, e.dstDisk, divergent, blockdev.BlockSize/16, 7)
		fresh := bitmap.New(testBlocks)
		for _, n := range divergent {
			fresh.Set(n)
		}
		back := e.migrateBack(t, backCfg, fresh, nil)
		diffs, err := blockdev.Diff(e.srcDisk, e.dstDisk)
		if err != nil {
			t.Fatal(err)
		}
		if len(diffs) != 0 {
			t.Fatalf("after IM back, disks differ at %d blocks (first %v)", len(diffs), diffs[0])
		}
		for _, it := range back.src.DiskIterations {
			diskWire += it.Bytes
		}
		return diskWire, diskImage(t, e.srcDisk), back.src.DeltaBlocks, back.dst.DeltaBlocks
	}
	litWire, litImg, litPatched, _ := run(Config{MaxExtentBlocks: 16})
	if litPatched != 0 {
		t.Fatalf("literal run reported %d delta blocks", litPatched)
	}
	deltaWire, deltaImg, srcPatched, dstPatched := run(Config{Delta: true, MaxExtentBlocks: 16})
	if !bytes.Equal(litImg, deltaImg) {
		t.Fatal("delta-on and delta-off runs produced different disks")
	}
	if srcPatched != len(divergent) || srcPatched != dstPatched {
		t.Fatalf("patched %d (src) / %d (dst) of %d divergent blocks", srcPatched, dstPatched, len(divergent))
	}
	if deltaWire*3 > litWire {
		t.Fatalf("delta return trip moved %d disk bytes vs %d literal — less than the 3x bar", deltaWire, litWire)
	}
	// Composed with dedup: the hot rewrites are content the stale peer
	// cannot claim, so the want-bitmap routes them into the delta path and
	// the same 3x bar must hold.
	bothWire, bothImg, bothPatched, _ := run(Config{Delta: true, Dedup: true, MaxExtentBlocks: 16})
	if !bytes.Equal(litImg, bothImg) {
		t.Fatal("dedup+delta run produced a different disk")
	}
	if bothPatched == 0 {
		t.Fatal("dedup+delta return trip shipped no patches")
	}
	if bothWire*3 > litWire {
		t.Fatalf("dedup+delta return trip moved %d disk bytes vs %d literal — less than the 3x bar", bothWire, litWire)
	}
}

// patchCorruptor flips one payload byte of every outbound patch,
// manufacturing the verify-on-apply failure deterministically.
type patchCorruptor struct{ transport.Conn }

func (c patchCorruptor) Send(m transport.Message) error {
	if m.Type == transport.MsgDeltaPatch && len(m.Payload) > 0 {
		p := append([]byte(nil), m.Payload...)
		p[len(p)/2] ^= 0xff
		m.Payload = p
	}
	return c.Conn.Send(m)
}

// TestDeltaMismatchDegrades pins the verify-on-apply contract: when every
// patch arrives corrupted, the destination refuses each one and the source
// re-sends the content literally — the migration still converges
// byte-identically and zero blocks are accounted as delta-moved.
func TestDeltaMismatchDegrades(t *testing.T) {
	e := newEnv(t)
	e.connSrc = patchCorruptor{e.connSrc}
	rep, res := e.runTPM(Config{Delta: true, MaxExtentBlocks: 16}, nil)
	e.checkConverged(res.CPU)
	if res.Report.DeltaBlocks != 0 {
		t.Fatalf("destination applied %d corrupted patches", res.Report.DeltaBlocks)
	}
	if rep.DeltaBlocks != 0 {
		t.Fatalf("source still accounts %d blocks as delta-moved after refusals", rep.DeltaBlocks)
	}
}

// TestDeltaNegotiationMismatchFailsCleanly pins the negotiation contract
// for raw engine users: a delta sender against a literal receiver must
// error out on both sides, not corrupt anything.
func TestDeltaNegotiationMismatchFailsCleanly(t *testing.T) {
	e := newEnv(t)
	srcCh := make(chan error, 1)
	go func() {
		_, err := MigrateSource(Config{Delta: true}, e.src, e.connSrc, nil)
		srcCh <- err
	}()
	if _, err := MigrateDest(Config{}, e.dst, e.connDst); err == nil {
		t.Fatal("literal destination accepted delta frames")
	}
	if err := <-srcCh; err == nil {
		t.Fatal("delta source completed against a literal destination")
	}
}

// TestDeltaUnderWorkload races a verified write workload against a
// delta-negotiated migration: the shadow-truth check proves patch
// application never writes stale or wrong bytes while the dirty set churns
// under the signature round trips.
func TestDeltaUnderWorkload(t *testing.T) {
	e := newEnv(t)
	gen := workload.NewWebServer(testBlocks, 23)
	stopIO := make(chan struct{})
	var replayErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, replayErr = workload.Replay(clockReal(), gen, testDomain, time.Hour, 200, e.submitVerified, stopIO)
	}()
	stopMem := startMemDirtier(e.src.VM.Memory(), 32)

	cfg := Config{Delta: true, MaxExtentBlocks: 8}
	cfg.OnFreeze = func() {
		stopMem()
		e.router.Freeze()
	}
	cfg.OnResume = e.router.ResumeGate
	_, res := e.runTPM(cfg, nil)
	close(stopIO)
	wg.Wait()
	if replayErr != nil {
		t.Fatalf("workload: %v", replayErr)
	}
	e.checkConverged(res.CPU)
}

// TestDeltaWANFlakyResume is the end-to-end WAN scenario the layer exists
// for: an incremental return trip over a latency- and bandwidth-shaped link
// with compression negotiated, delta on, and the link cut mid-transfer. The
// source must reconnect, resume the interrupted phase, and land a disk
// byte-identical to the sender's freeze-time content.
func TestDeltaWANFlakyResume(t *testing.T) {
	e := newEnv(t)
	_, res := e.runTPM(Config{}, nil)
	e.checkConverged(res.CPU)

	divergent := make([]int, 0, testBlocks/4)
	for n := 0; n < testBlocks; n += 4 {
		divergent = append(divergent, n)
	}
	hotRewrite(t, e.dstDisk, divergent, blockdev.BlockSize/16, 9)
	fresh := bitmap.New(testBlocks)
	for _, n := range divergent {
		fresh.Set(n)
	}

	// WAN shape: per-frame stall plus serialization at an asymmetric rate
	// (the return direction is the slow uplink). Stalls are kept far below
	// the real 50-200 ms RTT so the round-trip-heavy delta path stays
	// testable; the shape — every sig request pays a round trip — is the
	// same.
	wan := func(c transport.Conn) transport.Conn {
		return transport.NewWAN(c, 200*time.Microsecond, 64<<20)
	}

	inj := transport.NewInjector([]transport.Fault{{AfterSends: 40, Kind: transport.FaultCut}})
	relink := newPipeRelinker(inj)
	redial := func() (transport.Conn, error) {
		c, err := relink.redial()
		if err != nil {
			return nil, err
		}
		return wan(c), nil
	}

	backSrcVM := e.dst.VM
	backDstVM := vm.NewDestination(backSrcVM)
	backSrc := Host{VM: backSrcVM, Backend: blkback.NewBackend(e.dstDisk, testDomain)}
	backDst := Host{VM: backDstVM, Backend: blkback.NewBackend(e.srcDisk, testDomain)}
	backSrc.Backend.SeedDirty(fresh)
	router2 := NewRouter(backSrc.Backend.Submit)
	c1, c2 := transport.NewPipe(64)

	srcCfg := Config{
		Delta: true, CompressLevel: -1, MaxExtentBlocks: 16,
		MaxRetries: 5, RetryBackoff: time.Millisecond,
		Redial:   redial,
		OnFreeze: router2.Freeze,
	}
	dstCfg := Config{
		Delta: true, CompressLevel: -1, MaxExtentBlocks: 16,
		WaitReconnect: relink.waitReconnect,
		OnResume:      router2.ResumeGate,
	}
	srcCh := make(chan error, 1)
	var retries int
	go func() {
		rep, err := MigrateSource(srcCfg, backSrc, inj.Wrap(wan(c1)), backSrc.Backend.SwapDirty())
		if rep != nil {
			retries = rep.Retries
		}
		srcCh <- err
	}()
	if _, err := MigrateDest(dstCfg, backDst, wan(c2)); err != nil {
		t.Fatalf("IM destination: %v", err)
	}
	if err := <-srcCh; err != nil {
		t.Fatalf("IM source: %v", err)
	}
	if retries != 1 {
		t.Fatalf("source survived %d retries, want 1", retries)
	}
	diffs, err := blockdev.Diff(e.srcDisk, e.dstDisk)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("after flaky WAN IM back, disks differ at %d blocks (first %v)", len(diffs), diffs[0])
	}
}
