package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/blockdev/bcache"
	"bbmig/internal/core"
	"bbmig/internal/dedup"
	"bbmig/internal/sim"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// This file is the machine-readable benchmark harness: `bbench -json FILE`
// runs a curated suite — real-engine migrations over a latency-modelled link
// under each transfer policy, plus the paper-scale simulator's headline
// numbers — and writes a BENCH_*.json snapshot so the perf trajectory is
// tracked across PRs instead of living in scrollback.

// benchResult is one benchmark's outcome.
type benchResult struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations,omitempty"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	MBPerSec    float64            `json:"mb_per_s,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// benchFile is the BENCH_*.json schema. The schema string is versioned
// within the "bbmig-bench/v1" family: v1.1 added allocs_per_op and the
// MigrateTCP rows, v1.2 bytes_per_op (heap bytes allocated per op: a few
// large allocations weigh nothing in a count) and the MigrateDedup row.
// Readers accept any v1* snapshot (missing fields decode to zero), so
// -compare still reads a pre-bump baseline.
type benchFile struct {
	Schema     string        `json:"schema"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// kernelImage builds a MemDisk carrying a deterministic kernel-build write
// footprint: the generator's first writes traces applied once.
func kernelImage(blocks, writes int) *blockdev.MemDisk {
	disk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	gen := workload.New(workload.Kernel, blocks, 1)
	buf := make([]byte, blockdev.BlockSize)
	for i := 0; i < writes; i++ {
		a := gen.Next()
		if a.Op != blockdev.Write {
			continue
		}
		for n := a.Block; n < a.Block+a.Count && n < blocks; n++ {
			workload.FillBlock(buf, n, 1)
			disk.WriteBlock(n, buf)
		}
	}
	return disk
}

// modeledMigrate runs one full TPM migration of a kernel-build image over
// in-process pipes with a per-frame stall, under the given policy/extent
// shape, and is the body testing.Benchmark drives.
func modeledMigrate(b *testing.B, blocks, extentBlocks int, adaptive bool) {
	const frameStall = 40 * time.Microsecond
	srcDisk := kernelImage(blocks, 8000)
	b.SetBytes(int64(blocks) * blockdev.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		guest := vm.New("g", 1, 64, 256)
		src := core.Host{VM: guest, Backend: blkback.NewBackend(srcDisk, 1)}
		dst := core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(dstDisk, 1)}
		pa, pb := transport.NewPipe(256)
		cs, cd := transport.NewLatent(pa, frameStall), transport.NewLatent(pb, frameStall)
		cfg := core.Config{MaxExtentBlocks: extentBlocks}
		// Policies are stateful and per-migration: a fresh one each run, on
		// the sending side only (the receiver applies whatever arrives).
		srcCfg := cfg
		if adaptive {
			srcCfg.Policy = &core.AdaptivePolicy{}
		}
		errCh := make(chan error, 1)
		go func() {
			_, err := core.MigrateSource(srcCfg, src, cs, nil)
			errCh <- err
		}()
		if _, err := core.MigrateDest(cfg, dst, cd); err != nil {
			b.Fatal(err)
		}
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
		cs.Close()
		cd.Close()
	}
}

// liveMigrate runs one full TPM migration of a kernel-build image over
// modelled GbE under a progress-paced rewriting guest (workload.Paced: per
// ten units sent, one write of the web trace and eight pages of a 256-page
// hot set) — the suite's one row with a guest that writes. The sequential
// extent path keeps the race in frame order, so wire-bytes/op and skipped/op
// (units pre-copy left out as already dirty again) repeat exactly.
func liveMigrate(b *testing.B, blocks int) {
	const frameStall = 40 * time.Microsecond
	const pages, hotPages = 1024, 256
	srcDisk := kernelImage(blocks, 8000)
	buf := make([]byte, blockdev.BlockSize)
	var wire, skipped int64
	b.SetBytes(int64(blocks) * blockdev.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		guest := vm.New("g", 1, pages, 256)
		src := core.Host{VM: guest, Backend: blkback.NewBackend(srcDisk, 1)}
		dst := core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(dstDisk, 1)}
		router := core.NewRouter(src.Backend.Submit)
		trace := workload.New(workload.Web, blocks, 1)
		pa, pb := transport.NewPipe(256)
		cd := transport.NewWAN(pb, frameStall, 125e6)
		cs := &workload.Paced{Conn: transport.NewWAN(pa, frameStall, 125e6), Every: 10, Round: func(r int) {
			a := trace.Next()
			for a.Op != blockdev.Write {
				a = trace.Next()
			}
			workload.FillBlock(buf, a.Block, uint32(r+1))
			if err := router.Submit(blockdev.Request{Op: blockdev.Write, Block: a.Block, Domain: 1, Data: buf}); err != nil {
				b.Error(err)
			}
			for k := 0; k < 8; k++ {
				if err := guest.Memory().WritePage((8*r+k)%hotPages, buf); err != nil {
					b.Error(err)
				}
			}
		}}
		cfg := core.Config{MaxExtentBlocks: 64, OnResume: router.ResumeGate}
		srcCfg := cfg
		srcCfg.OnFreeze = func() {
			cs.Stop()
			router.Freeze()
		}
		errCh := make(chan error, 1)
		go func() {
			rep, err := core.MigrateSource(srcCfg, src, cs, nil)
			if err == nil {
				wire += rep.MigratedBytes
				skipped += int64(rep.SkippedBlocks() + rep.SkippedPages())
			}
			errCh <- err
		}()
		if _, err := core.MigrateDest(cfg, dst, cd); err != nil {
			b.Fatal(err)
		}
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
		cs.Close()
		cd.Close()
	}
	b.ReportMetric(float64(wire)/float64(b.N), "wire-bytes/op")
	b.ReportMetric(float64(skipped)/float64(b.N), "skipped/op")
}

// memDeltaMigrate runs one full TPM migration over modelled GbE under a
// progress-paced guest that rewrites a 512-page hot set of its 2048 pages —
// 32 pages per eight units sent, faster than the link drains them — either
// one word at a time (wordTouch) or as whole pages. Its three counts repeat
// exactly on the in-order send path: the bytes the destination receives
// while the guest is frozen, the memory's wire bytes, and the pages that
// travelled as deltas.
func memDeltaMigrate(b *testing.B, wordTouch bool) {
	const frameStall = 40 * time.Microsecond
	const blocks, pages, hotPages, perRound = 1024, 2048, 512, 32
	srcDisk := kernelImage(blocks, 2000)
	var freeze, memBytes, deltaPages int64
	b.SetBytes(blocks*blockdev.BlockSize + pages*vm.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		guest := vm.New("g", 1, pages, 256)
		page := make([]byte, vm.PageSize)
		for p := 0; p < pages; p++ {
			workload.FillBlock(page, p, 7)
			if err := guest.Memory().WritePage(p, page); err != nil {
				b.Fatal(err)
			}
		}
		src := core.Host{VM: guest, Backend: blkback.NewBackend(srcDisk, 1)}
		dst := core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(dstDisk, 1)}
		pa, pb := transport.NewPipe(256)
		cd := transport.NewMeter(transport.NewWAN(pb, frameStall, 125e6))
		sent := transport.NewMeter(transport.NewWAN(pa, frameStall, 125e6))
		cs := &workload.Paced{Conn: sent, Every: 8, Round: func(r int) {
			for k := perRound * r; k < perRound*(r+1); k++ {
				p := k % hotPages
				if wordTouch {
					workload.FillBlock(page, p, 7)
					binary.LittleEndian.PutUint64(page, uint64(k)+1)
				} else {
					workload.FillBlock(page, p, uint32(k)+8)
				}
				if err := guest.Memory().WritePage(p, page); err != nil {
					b.Error(err)
				}
			}
		}}
		var sentAtFreeze atomic.Int64 // set on the source's goroutine, read on the destination's
		srcCfg := core.Config{MaxExtentBlocks: 64, OnFreeze: func() {
			cs.Stop()
			sentAtFreeze.Store(sent.BytesSent())
		}}
		dstCfg := core.Config{MaxExtentBlocks: 64, OnResume: func(*blkback.PostCopyGate) {
			freeze += cd.BytesReceived() - sentAtFreeze.Load()
		}}
		errCh := make(chan error, 1)
		go func() {
			rep, err := core.MigrateSource(srcCfg, src, cs, nil)
			if err == nil {
				for _, it := range rep.MemIterations {
					memBytes += it.Bytes
				}
				deltaPages += int64(rep.DeltaPages())
			}
			errCh <- err
		}()
		if _, err := core.MigrateDest(dstCfg, dst, cd); err != nil {
			b.Fatal(err)
		}
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
		cs.Close()
		cd.Close()
	}
	b.ReportMetric(float64(freeze)/float64(b.N), "freeze_bytes")
	b.ReportMetric(float64(memBytes)/float64(b.N), "mem_bytes")
	b.ReportMetric(float64(deltaPages)/float64(b.N), "delta_pages")
}

// tcpMigrate runs one full migration of a kernel-build image over loopback
// TCP under cfg — the real-socket arm of the suite, where the pooled buffer
// discipline and vectored sends show up as allocs/op and MB/s. Both
// endpoints share cfg, so the stream counts always match.
func tcpMigrate(b *testing.B, blocks int, cfg core.Config) {
	srcDisk := kernelImage(blocks, 20000)
	b.SetBytes(int64(blocks) * blockdev.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		guest := vm.New("g", 1, 64, 256)
		src := core.Host{VM: guest, Backend: blkback.NewBackend(srcDisk, 1)}
		dst := core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(dstDisk, 1)}
		errCh := make(chan error, 1)
		go func() {
			var conn transport.Conn
			var err error
			if cfg.Streams > 1 {
				conn, err = transport.AcceptStriped(l, nil)
			} else {
				conn, err = transport.Accept(l)
			}
			if err == nil {
				defer conn.Close()
				_, err = core.MigrateDest(cfg, dst, conn)
			}
			errCh <- err
		}()
		var cs transport.Conn
		if cfg.Streams > 1 {
			cs, err = transport.DialStriped(l.Addr().String(), cfg.Streams, nil)
		} else {
			cs, err = transport.Dial(l.Addr().String())
		}
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.MigrateSource(cfg, src, cs, nil); err != nil {
			b.Fatal(err)
		}
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
		cs.Close()
		l.Close()
	}
}

// tcpCpBaseline is the wire-speed floor: the same image pushed through a
// raw TCP socket in 256 KiB chunks, no framing, no engine. MigrateTCP/cold
// is judged against this row.
func tcpCpBaseline(b *testing.B, blocks int) {
	chunkBlocks := (256 << 10) / blockdev.BlockSize
	srcDisk := kernelImage(blocks, 20000)
	b.SetBytes(int64(blocks) * blockdev.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		done := make(chan error, 1)
		go func() {
			c, err := l.Accept()
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			buf := make([]byte, chunkBlocks*blockdev.BlockSize)
			for n := 0; n < blocks; n += chunkBlocks {
				if _, err := io.ReadFull(c, buf); err != nil {
					done <- err
					return
				}
				for j := 0; j < chunkBlocks; j++ {
					if err := dstDisk.WriteBlock(n+j, buf[j*blockdev.BlockSize:(j+1)*blockdev.BlockSize]); err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}()
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, chunkBlocks*blockdev.BlockSize)
		for n := 0; n < blocks; n += chunkBlocks {
			for j := 0; j < chunkBlocks; j++ {
				if err := srcDisk.ReadBlock(n+j, buf[j*blockdev.BlockSize:(j+1)*blockdev.BlockSize]); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := c.Write(buf); err != nil {
				b.Fatal(err)
			}
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		c.Close()
		l.Close()
	}
}

// deltaMigrate runs the WAN return trip on the real engine: an incremental
// migration of a hot-rewritten prefix back toward a destination that still
// holds the stale pre-dwell image, over asymmetric WAN-shaped pipes. With
// delta off the rewrites travel as literals; with delta on they travel as
// signature-priced COPY/LITERAL patches against the stale copies.
func deltaMigrate(b *testing.B, blocks int, delta bool) {
	const frameStall = 40 * time.Microsecond
	hot := blocks / 8
	baseline := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	srcDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	buf := make([]byte, blockdev.BlockSize)
	head := make([]byte, blockdev.BlockSize)
	for n := 0; n < blocks; n++ {
		workload.FillBlock(buf, n, 7)
		baseline.WriteBlock(n, buf)
		if n < hot {
			workload.FillBlock(head, n+blocks, 13)
			copy(buf[:256], head[:256])
		}
		srcDisk.WriteBlock(n, buf)
	}
	b.SetBytes(int64(hot) * blockdev.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		for n := 0; n < blocks; n++ {
			if err := baseline.ReadBlock(n, buf); err != nil {
				b.Fatal(err)
			}
			if err := dstDisk.WriteBlock(n, buf); err != nil {
				b.Fatal(err)
			}
		}
		guest := vm.New("g", 1, 64, 256)
		srcBk := blkback.NewBackend(srcDisk, 1)
		src := core.Host{VM: guest, Backend: srcBk}
		dst := core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(dstDisk, 1)}
		pa, pb := transport.NewPipe(256)
		cs := transport.NewWAN(pa, frameStall, 100e6)
		cd := transport.NewWAN(pb, frameStall, 400e6)
		cfg := core.Config{MaxExtentBlocks: 16, Delta: delta}
		fresh := bitmap.New(blocks)
		fresh.SetRange(0, hot)
		srcBk.SeedDirty(fresh)
		initial := srcBk.SwapDirty()
		errCh := make(chan error, 1)
		go func() {
			_, err := core.MigrateSource(cfg, src, cs, initial)
			errCh <- err
		}()
		if _, err := core.MigrateDest(cfg, dst, cd); err != nil {
			b.Fatal(err)
		}
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
		cs.Close()
		cd.Close()
	}
}

// dedupMigrate runs one full migration of a template-provisioned clone —
// three quarters of the disk cycle 512 template payloads, the last quarter
// was never written — over modelled GbE to a destination whose fingerprint
// index knows a sibling clone: every block travels as a reference. The index
// is built and warmed from the sibling before every migration, off the clock
// (as benchmark/workloads.go does): one index shared across iterations goes
// cold after its first migration (ROADMAP 3(e)), and this row measures the
// codec, not that finding.
func dedupMigrate(b *testing.B, blocks int) {
	const frameStall = 40 * time.Microsecond
	const distinct = 512
	clone := func() *blockdev.MemDisk {
		disk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		buf := make([]byte, blockdev.BlockSize)
		for n := 0; n < blocks*3/4; n++ {
			workload.FillBlock(buf, n%distinct, 11)
			disk.WriteBlock(n, buf)
		}
		return disk
	}
	srcDisk, sibling := clone(), clone()
	var refs int
	b.SetBytes(int64(blocks) * blockdev.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		idx := dedup.NewIndex(blockdev.BlockSize)
		if err := idx.RegisterSource("disk/sibling", sibling); err != nil {
			b.Fatal(err)
		}
		if _, err := idx.ScanSource("disk/sibling"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		guest := vm.New("g", 1, 64, 256)
		src := core.Host{VM: guest, Backend: blkback.NewBackend(srcDisk, 1)}
		dst := core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(dstDisk, 1)}
		pa, pb := transport.NewPipe(256)
		cs := transport.NewWAN(pa, frameStall, 125e6)
		cd := transport.NewWAN(pb, frameStall, 125e6)
		cfg := core.Config{MaxExtentBlocks: 64, Dedup: true}
		dstCfg := cfg
		dstCfg.DedupIndex, dstCfg.DedupName = idx, "disk/clone"
		errCh := make(chan error, 1)
		go func() {
			rep, err := core.MigrateSource(cfg, src, cs, nil)
			if err == nil {
				refs = rep.DedupBlocks
			}
			errCh <- err
		}()
		if _, err := core.MigrateDest(dstCfg, dst, cd); err != nil {
			b.Fatal(err)
		}
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
		cs.Close()
		cd.Close()
	}
	b.ReportMetric(float64(refs)/float64(blocks), "ref_share")
}

// snapshotScan measures a full-device scan — the shape of the engine's
// fingerprint and dedup passes — over a bcache volume with guest writes
// interleaved every eight blocks. With frozen set the scan reads a CoW
// snapshot; otherwise it reads the mutating live device. The writes come
// from the scanning goroutine on a fixed stride, not a free-running
// goroutine, so allocs/op is exact and the -compare alloc gate can hold a
// tight line on the cache's hot paths. statsOut, when non-nil, receives the
// volume's counters after the last run.
func snapshotScan(b *testing.B, blocks int, frozen bool, statsOut *bcache.Stats) {
	disk := kernelImage(blocks, 8000)
	vol := bcache.New(disk, blocks)
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < blocks; n++ { // warm: measure the cache, not the fill
		if err := vol.ReadBlock(n, buf); err != nil {
			b.Fatal(err)
		}
	}
	wbuf := make([]byte, blockdev.BlockSize)
	b.SetBytes(int64(blocks) * blockdev.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var view blockdev.Device = vol
		if frozen {
			view = vol.Snapshot()
		}
		for n := 0; n < blocks; n++ {
			if err := view.ReadBlock(n, buf); err != nil {
				b.Fatal(err)
			}
			if n%8 == 0 {
				if err := vol.WriteBlock((n*37+13)%blocks, wbuf); err != nil {
					b.Fatal(err)
				}
			}
		}
		if s, ok := view.(blockdev.Snapshot); ok {
			s.Release()
		}
	}
	b.StopTimer()
	if statsOut != nil {
		*statsOut = vol.Stats()
	}
}

// runJSON executes the suite and writes path.
func runJSON(path string, seed int64) error {
	const blocks = 4096 // 16 MiB image keeps the suite fast enough for CI
	out := benchFile{
		Schema:    "bbmig-bench/v1.2",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	add := func(name string, r testing.BenchmarkResult) {
		mbps := 0.0
		if r.NsPerOp() > 0 && r.Bytes > 0 {
			mbps = float64(r.Bytes) / float64(r.NsPerOp()) * 1e9 / 1e6
		}
		out.Benchmarks = append(out.Benchmarks, benchResult{
			Name: name, Iterations: r.N, NsPerOp: float64(r.NsPerOp()), MBPerSec: mbps,
			AllocsPerOp: float64(r.AllocsPerOp()), BytesPerOp: float64(r.AllocedBytesPerOp()), Metrics: r.Extra,
		})
		fmt.Printf("%-44s %8d ns/op  %9.1f MB/s  %8d allocs/op  %10d B/op\n", name, r.NsPerOp(), mbps, r.AllocsPerOp(), r.AllocedBytesPerOp())
	}

	// Real engine over the modelled link: the policy trajectory.
	add("MigrateModeledLink/default-per-block",
		testing.Benchmark(func(b *testing.B) { modeledMigrate(b, blocks, 1, false) }))
	add("MigrateModeledLink/fixed-64-extents",
		testing.Benchmark(func(b *testing.B) { modeledMigrate(b, blocks, 64, false) }))
	add("MigrateModeledLink/adaptive-policy",
		testing.Benchmark(func(b *testing.B) { modeledMigrate(b, blocks, 1, true) }))

	// The same link under a guest that writes while it is migrated.
	add("MigrateLive/rewrite",
		testing.Benchmark(func(b *testing.B) { liveMigrate(b, blocks) }))

	// Page deltas: what the freeze window and the memory pre-copy carry for a
	// guest that touches words of its hot pages, and for one that rewrites
	// them whole (no delta pays: the literal path's worst case).
	add("MemDelta/word-touch",
		testing.Benchmark(func(b *testing.B) { memDeltaMigrate(b, true) }))
	add("MemDelta/page-rewrite",
		testing.Benchmark(func(b *testing.B) { memDeltaMigrate(b, false) }))

	// Real engine over loopback TCP: the zero-copy hot path against the raw
	// socket floor. A 64 MiB image so the steady state, not the handshake,
	// dominates.
	const tcpBlocks = 16384
	add("MigrateTCP/cold",
		testing.Benchmark(func(b *testing.B) { tcpMigrate(b, tcpBlocks, core.Config{MaxExtentBlocks: 64, Readahead: 4}) }))
	add("MigrateTCP/striped4",
		testing.Benchmark(func(b *testing.B) {
			tcpMigrate(b, tcpBlocks, core.Config{Streams: 4, MaxExtentBlocks: 64, Workers: 4})
		}))
	add("MigrateTCP/compressed",
		testing.Benchmark(func(b *testing.B) {
			tcpMigrate(b, tcpBlocks, core.Config{MaxExtentBlocks: 64, CompressLevel: 1, Workers: 4})
		}))
	add("MigrateTCP/cp-baseline",
		testing.Benchmark(func(b *testing.B) { tcpCpBaseline(b, tcpBlocks) }))

	// WAN return trip: hot-rewrite divergence back toward the stale-copy
	// holder, literal vs delta-encoded.
	add("MigrateWAN/literal-back",
		testing.Benchmark(func(b *testing.B) { deltaMigrate(b, blocks, false) }))
	add("MigrateWAN/delta-back",
		testing.Benchmark(func(b *testing.B) { deltaMigrate(b, blocks, true) }))

	// Template clone to a destination that knows a sibling: the dedup codec's
	// own cost, every block by reference.
	add("MigrateDedup/warm",
		testing.Benchmark(func(b *testing.B) { dedupMigrate(b, blocks) }))

	// The one encoding every travelling bitmap uses (WIRE.md §4), on the
	// paper's 10 001 920-block disk: an idle guest's empty freeze set, the
	// web server's 13 440-block divergence, and a half-set bitmap that must
	// still take the dense path at the dense path's cost.
	const paperBlocks = 10_001_920
	half := bitmap.New(paperBlocks)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < paperBlocks; i++ {
		if rng.Int63()&1 == 1 {
			half.Set(i)
		}
	}
	for _, fx := range []struct {
		name string
		bm   *bitmap.Bitmap
	}{
		{"paper-empty", bitmap.New(paperBlocks)},
		{"paper-web", workload.WriteSet(workload.New(workload.Web, paperBlocks, seed), paperBlocks, 13440)},
		{"paper-half", half},
	} {
		add("BitmapMarshal/"+fx.name, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				data, err := fx.bm.MarshalBinary()
				if err != nil {
					b.Fatal(err)
				}
				size = len(data)
			}
			b.ReportMetric(float64(size), "bytes")
		}))
	}

	// Snapshot block layer: the fingerprint/dedup scan shape against a
	// write-hammered volume, live-contended vs frozen CoW snapshot. The
	// hit-rate row records how much of the scan the cache absorbed.
	var scanStats bcache.Stats
	add("SnapshotScan/live-contended",
		testing.Benchmark(func(b *testing.B) { snapshotScan(b, blocks, false, nil) }))
	add("SnapshotScan/snapshot",
		testing.Benchmark(func(b *testing.B) { snapshotScan(b, blocks, true, &scanStats) }))
	out.Benchmarks = append(out.Benchmarks, benchResult{
		Name: "BcacheScanStats/snapshot",
		Metrics: map[string]float64{
			"hit_rate":   scanStats.HitRate(),
			"cow_copies": float64(scanStats.CowCopies),
			"evictions":  float64(scanStats.Evictions),
		},
	})

	// Paper-scale simulator headlines: deterministic, so stored as metrics.
	for _, kind := range sim.TableIWorkloads() {
		p := sim.Defaults(kind)
		p.Seed = seed
		p.DwellAfter = time.Minute
		r := sim.RunTPM(p)
		out.Benchmarks = append(out.Benchmarks, benchResult{
			Name: "SimTableI/" + kind.String(),
			Metrics: map[string]float64{
				"total_s":     r.Report.TotalTime.Seconds(),
				"downtime_ms": float64(r.Report.Downtime.Milliseconds()),
				"migrated_mb": r.Report.MigratedMB(),
				"disk_iters":  float64(r.Report.DiskIterationCount()),
			},
		})
	}
	results, _ := sim.AdaptiveSweep(seed)
	for i, name := range []string{"default", "fixed64", "adaptive"} {
		out.Benchmarks = append(out.Benchmarks, benchResult{
			Name: "SimAdaptiveSweep/" + name,
			Metrics: map[string]float64{
				"total_s":     results[i].Report.TotalTime.Seconds(),
				"precopy_s":   results[i].Report.PreCopyTime.Seconds(),
				"migrated_mb": results[i].Report.MigratedMB(),
			},
		})
	}
	swarmRows, _ := sim.SwarmSweep(seed)
	for i, name := range []string{"literal", "single-source", "swarm"} {
		out.Benchmarks = append(out.Benchmarks, benchResult{
			Name: "SimSwarmSweep/" + name,
			Metrics: map[string]float64{
				"makespan_s":    swarmRows[i].Makespan.Seconds(),
				"fleet_wire_gb": swarmRows[i].FleetWireGB,
				"speedup":       swarmRows[i].Speedup,
			},
		})
	}

	wanRows, _ := sim.WANSweep(seed)
	wanSlug := map[string]string{"literal": "literal", "dedup only": "dedup-only", "dedup + delta": "dedup-delta"}
	for _, r := range wanRows {
		if r.HotPct != 35 {
			continue // snapshot the heaviest swept divergence only
		}
		out.Benchmarks = append(out.Benchmarks, benchResult{
			Name: "SimWANSweep/" + wanSlug[r.Label],
			Metrics: map[string]float64{
				"return_wire_mb": r.ReturnWireMB,
				"reduction":      r.Reduction,
				"trip_s":         r.TripTime.Seconds(),
			},
		})
	}

	// Fleet autopilot headline at the CI shape: small enough to stay
	// second-scale, large enough that the diurnal speedup is stable.
	fleetRows, _ := sim.FleetSweep(seed, 40, 2000)
	for _, r := range fleetRows {
		out.Benchmarks = append(out.Benchmarks, benchResult{
			Name: "SimFleetSweep/" + r.Shape + "-" + r.Policy,
			Metrics: map[string]float64{
				"makespan_s":       r.Makespan.Seconds(),
				"mean_downtime_ms": float64(r.MeanDowntime.Milliseconds()),
				"high_starts":      float64(r.HighStarts),
				"retrans_gb":       float64(r.RetransBlocks) * blockdev.BlockSize / 1e9,
				"speedup":          r.Speedup,
			},
		})
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(out.Benchmarks))
	return nil
}
