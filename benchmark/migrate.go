package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/blockdev/bcache"
	"bbmig/internal/core"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// sample is everything one migration yields.
type sample struct {
	migrationS float64
	downtimeMs float64
	frozenKiB  float64
	wireRatio  float64
	cpuS       float64 // user+sys CPU of the timed window
	floorS     float64 // raw copy of the same logical bytes, run right after (traced runs of loopback workloads)

	disruptionMs float64
	latenessMs   float64 // median guest wake lateness

	mallocs, allocBytes float64 // heap activity of the timed window (trace pass, untraced migrations)

	src  *metrics.Report
	gate blkback.GateStats
	back blkback.Stats // source backend
	mt   *migTrace     // nil when untraced

	srcFrames, stripeFrames int64 // engine-level frames sent by the source; frames on the striped wire
	stripeImbalance         float64
	cache                   *bcache.Stats // source block cache, where there is one

	attempted, failed int
	errs              []error
}

func (s *sample) fail(err error) {
	s.failed++
	s.errs = append(s.errs, err)
}

// rusage returns the process's user and system CPU seconds and its peak
// resident set in MiB (Linux reports ru_maxrss in KiB).
func rusage() (userS, sysS, peakRSSMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// fillMemory gives every guest page distinct content, so a page that did not
// arrive cannot pass verification as a zero page.
func fillMemory(mem *vm.Memory, seed int64) {
	page := make([]byte, mem.PageSize())
	for i := range page {
		page[i] = byte(i*7) ^ byte(seed)
	}
	for n := 0; n < mem.NumPages(); n++ {
		binary.LittleEndian.PutUint64(page, uint64(n)+1)
		_ = mem.WritePage(n, page) // in range by the loop bound
	}
}

// endpoint is one side's connection stack, outermost first: a byte meter
// (frozen_kib and progress pacing read it), the tracing decorator when
// traced, the link model when shaped, then loopback TCP.
func endpoint(raw transport.Conn, sp *spec, mt *migTrace, side int) *transport.Meter {
	c := raw
	if sp.link.shaped() {
		rate := sp.link.up
		if side == sideDest {
			rate = sp.link.down
		}
		c = transport.NewWAN(c, time.Duration(frameStall), rate)
	}
	if mt != nil {
		c = &tracedConn{inner: c, mt: mt, side: side}
	}
	return transport.NewMeter(c)
}

// runMigration performs one verified migration of fx under sp. mt non-nil
// turns the decorators on. The timed window runs from just before the dial
// to both engines having returned.
func runMigration(sp *spec, fx *fixture, seed int64, mt *migTrace, memstats bool) sample {
	var s sample
	s.attempted = 2 // the migration and its verification
	s.mt = mt

	// --- set-up of this migration, outside the timed window ---
	srcDev := fx.source()
	dstDisk, dstExtra, err := fx.dest()
	if err != nil {
		s.fail(fmt.Errorf("prepare destination: %w", err))
		return s
	}
	var dstDev blockdev.Device = dstDisk
	if mt != nil {
		srcDev = wrapDevice(srcDev, mt, sideSource)
		dstDev = wrapDevice(dstDev, mt, sideDest)
	}
	guestVM := vm.New("guest", 1, sp.pages, 256)
	fillMemory(guestVM.Memory(), seed)
	srcBack := blkback.NewBackend(srcDev, guestVM.DomainID)
	src := core.Host{VM: guestVM, Backend: srcBack}
	dst := core.Host{VM: vm.NewDestination(guestVM), Backend: blkback.NewBackend(dstDev, guestVM.DomainID)}
	var initial *bitmap.Bitmap
	if fx.initial != nil {
		initial = fx.initial.Clone()
	}

	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		s.fail(err)
		return s
	}
	defer l.Close()

	srcCfg, dstCfg := sp.cfg, sp.cfg
	dstCfg.DedupIndex, dstCfg.DedupName = dstExtra.DedupIndex, dstExtra.DedupName
	if mt != nil {
		srcCfg.OnEvent = mt.onEvent(sideSource)
		dstCfg.OnEvent = mt.onEvent(sideDest)
	}

	var srcConn, dstConn *transport.Meter
	var srcStriped *transport.Striped
	connReady := make(chan struct{}) // closed once srcConn is set

	var router *core.Router
	var g *guest
	if sp.live {
		router = core.NewRouter(srcBack.Submit)
		progress := func() int64 {
			select {
			case <-connReady:
				return srcConn.BytesSent()
			default:
				return 0
			}
		}
		g = newGuest(router, guestVM.Memory(), progress, fx.blocks, seed)
	}
	var sentAtFreeze atomic.Int64 // written on the source goroutine, read on the destination's
	var frozenBytes int64
	srcCfg.OnFreeze = func() {
		if router != nil {
			router.Freeze()
			g.freezeMemory()
		}
		sentAtFreeze.Store(srcConn.BytesSent())
	}
	dstCfg.OnResume = func(gate *blkback.PostCopyGate) {
		// Everything the source sent up to RESUME has been received, in
		// order, by the time the destination resumes the VM.
		frozenBytes = dstConn.BytesReceived() - sentAtFreeze.Load()
		if router != nil {
			router.ResumeGate(gate)
		}
	}

	runtime.GC()
	var ms0 runtime.MemStats
	if memstats {
		runtime.ReadMemStats(&ms0)
	}
	if g != nil {
		g.start()
	}
	user0, sys0, _ := rusage()

	// --- timed window ---
	type destOut struct {
		res *core.DestResult
		err error
	}
	destCh := make(chan destOut, 1)
	start := time.Now()
	go func() {
		var raw transport.Conn
		var err error
		if sp.cfg.Streams > 1 {
			raw, err = transport.AcceptStriped(l, nil)
		} else {
			raw, err = transport.Accept(l)
		}
		if err != nil {
			destCh <- destOut{err: err}
			return
		}
		dstConn = endpoint(raw, sp, mt, sideDest)
		res, err := core.MigrateDest(dstCfg, dst, dstConn)
		destCh <- destOut{res, err}
	}()
	var srcRep *metrics.Report
	var raw transport.Conn
	if sp.cfg.Streams > 1 {
		srcStriped, err = transport.DialStriped(l.Addr().String(), sp.cfg.Streams, nil)
		raw = srcStriped
	} else {
		raw, err = transport.Dial(l.Addr().String())
	}
	if err == nil {
		srcConn = endpoint(raw, sp, mt, sideSource)
		close(connReady)
		srcRep, err = core.MigrateSource(srcCfg, src, srcConn, initial)
	}
	if err != nil {
		// Unblock a destination still accepting, or waiting on a source that
		// could not tell it about the failure.
		l.Close()
		if srcConn != nil {
			srcConn.Close()
		}
	}
	out := <-destCh
	end := time.Now()
	// --- end of timed window ---

	user1, sys1, _ := rusage()
	if memstats {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		s.mallocs = float64(ms1.Mallocs - ms0.Mallocs)
		s.allocBytes = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	}

	// Teardown order matters: the destination engine has returned, so the
	// gate is synchronized and no guest read can need a pull any more; only
	// then stop the guest, wait for it, and close the connections. Closing
	// the destination connection first fails an in-flight post-copy read
	// with "send PULL_REQUEST: use of closed network connection".
	if g != nil {
		if err != nil || out.err != nil {
			aborted := errors.New("migration aborted")
			router.ResumeAt(func(blockdev.Request) error { return aborted })
		}
		g.wait()
	}
	if srcConn != nil {
		srcConn.Close()
	}
	if dstConn != nil {
		dstConn.Close()
	}

	if err != nil {
		s.fail(fmt.Errorf("source: %w", err))
	}
	if out.err != nil {
		s.fail(fmt.Errorf("destination: %w", out.err))
	}
	if s.failed > 0 {
		return s
	}

	// --- verification ---
	if verr := verify(sp, fx, g, guestVM, dst.VM, dstDisk, out.res); verr != nil {
		s.fail(fmt.Errorf("verification: %w", verr))
	}
	if g != nil {
		s.attempted += g.requests
		s.failed += g.failed
		if g.firstErr != nil {
			s.errs = append(s.errs, fmt.Errorf("guest request: %w", g.firstErr))
		}
		s.disruptionMs = g.disruptionMs()
		s.latenessMs = median(g.lateness)
	}

	logical := float64(fx.logical + int64(sp.pages)*vm.PageSize)
	s.src = srcRep
	s.migrationS = end.Sub(start).Seconds()
	s.downtimeMs = float64(srcRep.Downtime.Nanoseconds()) / 1e6
	s.frozenKiB = float64(frozenBytes) / 1024
	s.wireRatio = float64(srcRep.MigratedBytes) / logical
	s.cpuS = user1 - user0 + sys1 - sys0
	s.gate = out.res.Gate.Stats()
	s.back = srcBack.Stats()
	s.srcFrames = srcConn.MessagesSent()
	if srcStriped != nil {
		s.stripeFrames = srcStriped.MessagesSent()
		lo, hi := int64(-1), int64(0)
		for _, m := range srcStriped.PerStream() {
			b := m.BytesSent()
			if lo < 0 || b < lo {
				lo = b
			}
			if b > hi {
				hi = b
			}
		}
		if lo > 0 {
			s.stripeImbalance = float64(hi) / float64(lo)
		}
	}
	if c := cacheUnder(srcBack.Device()); c != nil {
		st := c.Stats()
		s.cache = &st
	}
	if mt != nil {
		mt.finish(start, end, blockdev.BlockSize, map[string]any{
			"migration_s": s.migrationS, "downtime_ms": s.downtimeMs,
			"wire_bytes": srcRep.MigratedBytes, "frozen_bytes": frozenBytes,
			"disk_iterations": len(srcRep.DiskIterations),
		})
	}
	return s
}

// verify checks the paper's consistency requirement: destination disk,
// memory and CPU state equal the source's at the end of the migration. For a
// live guest the expected disk is the template plus every write the guest
// issued (its shadow), wherever the write landed.
func verify(sp *spec, fx *fixture, g *guest, srcVM, dstVM *vm.VM, dstDisk *blockdev.MemDisk, res *core.DestResult) error {
	if !res.CPU.Equal(srcVM.CPU()) {
		return errors.New("CPU state differs")
	}
	a, b := make([]byte, vm.PageSize), make([]byte, vm.PageSize)
	for n := 0; n < sp.pages; n++ {
		if err := srcVM.Memory().ReadPage(n, a); err != nil {
			return err
		}
		if err := dstVM.Memory().ReadPage(n, b); err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("memory page %d differs", n)
		}
	}
	// Union of allocated blocks: everything either disk may hold non-zero.
	over := fx.template.AllocatedBitmap()
	over.Union(dstDisk.AllocatedBitmap())
	var fail error
	check := func(n int) bool {
		if fail = fx.template.ReadBlock(n, a); fail != nil {
			return false
		}
		if g != nil && g.gens[n] > 0 {
			workload.FillBlock(a, n, g.gens[n])
		}
		if fail = dstDisk.ReadBlock(n, b); fail != nil {
			return false
		}
		if !bytes.Equal(a, b) {
			fail = fmt.Errorf("disk block %d differs", n)
		}
		return fail == nil
	}
	over.ForEachSet(check)
	if fail == nil && g != nil {
		for n, gen := range g.gens { // guest writes outside the union cannot exist, but the shadow is the authority
			if gen > 0 && !over.Test(n) && !check(n) {
				break
			}
		}
	}
	return fail
}

// cacheUnder finds the block cache under a (possibly traced) source device.
func cacheUnder(dev blockdev.Device) *bcache.Cache {
	if tv, ok := dev.(*tracedVol); ok {
		dev = tv.vol
	}
	c, _ := dev.(*bcache.Cache)
	return c
}

// floorCopy pushes the same logical bytes through a raw loopback socket in
// 256 KiB chunks and writes them block by block on the far side: `cp` over a
// socket, no framing, no handshake, no engine. It returns the seconds from
// dial to the receiver having stored the last byte.
func floorCopy(sp *spec, fx *fixture, srcMem *vm.Memory) (float64, error) {
	const chunkBlocks = (256 << 10) / blockdev.BlockSize
	const unit = blockdev.BlockSize // a block and a page are the same size
	src := fx.source()
	dstDisk := blankDisk(fx.blocks, fx.initial)
	dstMem := vm.NewMemory(sp.pages, vm.PageSize)
	owed := fx.initial
	if owed == nil {
		owed = bitmap.NewAllSet(fx.blocks)
	}
	// Both ends walk the same chunks: runs of owed blocks, then the pages.
	eachChunk := func(fn func(pages bool, start, count int) error) error {
		for pos := 0; ; {
			ext := owed.NextExtent(pos, chunkBlocks)
			if ext.Count == 0 {
				break
			}
			if err := fn(false, ext.Start, ext.Count); err != nil {
				return err
			}
			pos = ext.End()
		}
		for n := 0; n < sp.pages; n += chunkBlocks {
			if err := fn(true, n, min(chunkBlocks, sp.pages-n)); err != nil {
				return err
			}
		}
		return nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	runtime.GC()

	done := make(chan error, 1)
	start := time.Now()
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, chunkBlocks*unit)
		done <- eachChunk(func(pages bool, start, count int) error {
			if _, err := io.ReadFull(c, buf[:count*unit]); err != nil {
				return err
			}
			for k := 0; k < count; k++ {
				var err error
				if one := buf[k*unit : (k+1)*unit]; pages {
					err = dstMem.WritePage(start+k, one)
				} else {
					err = dstDisk.WriteBlock(start+k, one)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		l.Close() // unblock the accept
		<-done
		return 0, err
	}
	defer c.Close()
	buf := make([]byte, chunkBlocks*unit)
	err = eachChunk(func(pages bool, start, count int) error {
		for k := 0; k < count; k++ {
			var err error
			if one := buf[k*unit : (k+1)*unit]; pages {
				err = srcMem.ReadPage(start+k, one)
			} else {
				err = src.ReadBlock(start+k, one)
			}
			if err != nil {
				return err
			}
		}
		_, err := c.Write(buf[:count*unit])
		return err
	})
	if err != nil {
		c.Close() // unblock the receiver
		<-done
		return 0, err
	}
	if err := <-done; err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}
