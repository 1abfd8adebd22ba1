// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VI) plus the design-choice ablations listed in DESIGN.md. Each benchmark
// reports the paper-comparable quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints rows directly comparable to Tables I-III and Figures 5-6. The
// cmd/bbench tool prints the same data as formatted tables.
package bbmig_test

import (
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/clock"
	"bbmig/internal/core"
	"bbmig/internal/dedup"
	"bbmig/internal/hostd"
	"bbmig/internal/metrics"
	"bbmig/internal/sim"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// --- Table I: TPM results for the three workloads -----------------------

func benchTableI(b *testing.B, kind workload.Kind) {
	b.Helper()
	var last *sim.Result
	for i := 0; i < b.N; i++ {
		p := sim.Defaults(kind)
		p.DwellAfter = time.Minute // Table I doesn't need the IM dwell
		last = sim.RunTPM(p)
	}
	b.ReportMetric(last.Report.TotalTime.Seconds(), "total-s")
	b.ReportMetric(float64(last.Report.Downtime.Milliseconds()), "downtime-ms")
	b.ReportMetric(last.Report.MigratedMB(), "migrated-MB")
	b.ReportMetric(float64(last.Report.DiskIterationCount()), "disk-iters")
}

func BenchmarkTableI_DynamicWebServer(b *testing.B) { benchTableI(b, workload.Web) }
func BenchmarkTableI_LowLatencyServer(b *testing.B) { benchTableI(b, workload.Stream) }
func BenchmarkTableI_DiabolicalServer(b *testing.B) { benchTableI(b, workload.Diabolic) }

// --- Table II: incremental migration vs primary TPM ---------------------

func benchTableII(b *testing.B, kind workload.Kind) {
	b.Helper()
	primary := sim.RunTPM(sim.Defaults(kind))
	b.ResetTimer()
	var im *sim.Result
	for i := 0; i < b.N; i++ {
		im = primary.RunIM()
	}
	b.ReportMetric(im.Report.StorageTime().Seconds(), "im-storage-s")
	b.ReportMetric(im.Report.MigratedMB(), "im-MB")
	b.ReportMetric(primary.Report.MigratedMB(), "primary-MB")
}

func BenchmarkTableII_IM_DynamicWebServer(b *testing.B) { benchTableII(b, workload.Web) }
func BenchmarkTableII_IM_LowLatencyServer(b *testing.B) { benchTableII(b, workload.Stream) }
func BenchmarkTableII_IM_DiabolicalServer(b *testing.B) { benchTableII(b, workload.Diabolic) }

// --- Table III: write-tracking overhead on the real interception path ---

func benchTracking(b *testing.B, tracked bool) {
	b.Helper()
	dev := blockdev.NewMemDisk(1<<16, blockdev.BlockSize)
	be := blkback.NewBackend(dev, 1)
	if tracked {
		be.StartTracking()
	}
	buf := make([]byte, blockdev.BlockSize)
	b.SetBytes(blockdev.BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := be.Submit(blockdev.Request{Op: blockdev.Write, Block: i & (1<<16 - 1), Domain: 1, Data: buf}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIII_WriteTrackingOff(b *testing.B) { benchTracking(b, false) }
func BenchmarkTableIII_WriteTrackingOn(b *testing.B)  { benchTracking(b, true) }

// --- Fig. 5: web throughput flat across the migration window ------------

func BenchmarkFig5_WebThroughput(b *testing.B) {
	var r *sim.Result
	for i := 0; i < b.N; i++ {
		r = sim.Fig5(1)
	}
	during := r.WorkloadSeries.Mean(r.MigStart, r.MigEnd)
	after := r.WorkloadSeries.Mean(r.MigEnd+time.Minute, r.MigEnd+10*time.Minute)
	b.ReportMetric((1-during/after)*100, "throughput-drop-%")
}

// --- Fig. 6 + §VI-C-3: Bonnie++ impact, unlimited vs rate-limited -------

func benchFig6(b *testing.B, limited bool) {
	b.Helper()
	var r *sim.Result
	for i := 0; i < b.N; i++ {
		unl, lim := sim.Fig6(1)
		if limited {
			r = lim
		} else {
			r = unl
		}
	}
	free := r.WorkloadSeries.Mean(r.MigEnd+2*time.Minute, r.MigEnd+8*time.Minute)
	during := r.WorkloadSeries.Mean(r.MigStart, r.MigEnd)
	b.ReportMetric((1-during/free)*100, "bonnie-impact-%")
	b.ReportMetric(r.Report.PreCopyTime.Seconds(), "precopy-s")
}

func BenchmarkFig6_Unlimited(b *testing.B)   { benchFig6(b, false) }
func BenchmarkFig6_RateLimited(b *testing.B) { benchFig6(b, true) }

// --- §IV-A-2 write locality ----------------------------------------------

func benchLocality(b *testing.B, kind workload.Kind, horizon time.Duration) {
	b.Helper()
	var st workload.LocalityStats
	for i := 0; i < b.N; i++ {
		g := workload.New(kind, 1<<21, 1)
		h := horizon
		if d, ok := g.(*workload.Diabolical); ok {
			h = d.CycleDuration()
		}
		st = workload.Locality(g, h)
	}
	b.ReportMetric(st.RewriteRatio*100, "rewrite-%")
}

func BenchmarkLocality_KernelBuild(b *testing.B) { benchLocality(b, workload.Kernel, 10*time.Minute) }
func BenchmarkLocality_SPECwebBanking(b *testing.B) {
	benchLocality(b, workload.Web, 30*time.Minute)
}
func BenchmarkLocality_Bonnie(b *testing.B) { benchLocality(b, workload.Diabolic, 0) }

// --- Ablation A1: word-at-a-time scan of a sparse paper-scale bitmap ------

const ablationBits = 10_001_920 // the 39 070 MB disk's bitmap

func sparseBits() []int {
	bits := make([]int, 0, 2000)
	for i := 0; i < 2000; i++ {
		bits = append(bits, (i*4999)%ablationBits)
	}
	return bits
}

func BenchmarkBitmapScan_FlatSparse(b *testing.B) {
	bm := bitmap.New(ablationBits)
	for _, i := range sparseBits() {
		bm.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		bm.ForEachSet(func(int) bool { n++; return true })
		if n == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkBitmapMarshal prices the one encoding every travelling bitmap
// uses (WIRE.md §4) on the paper's disk: an idle guest's empty freeze set,
// the web server's 13 440-block divergence, and a half-set bitmap, which
// must still take the dense path at the dense path's cost.
func BenchmarkBitmapMarshal(b *testing.B) {
	half := bitmap.New(ablationBits)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < ablationBits; i++ {
		if rng.Int63()&1 == 1 {
			half.Set(i)
		}
	}
	for _, fx := range []struct {
		name string
		bm   *bitmap.Bitmap
	}{
		{"paper-empty", bitmap.New(ablationBits)},
		{"paper-web", workload.WriteSet(workload.New(workload.Web, ablationBits, 1), ablationBits, 13440)},
		{"paper-half", half},
	} {
		b.Run(fx.name, func(b *testing.B) {
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
		})
	}
}

func BenchmarkBitmapSet_Flat(b *testing.B) {
	bm := bitmap.New(ablationBits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Set(i % ablationBits)
	}
}

func BenchmarkBitmapSet_Atomic(b *testing.B) {
	bm := bitmap.NewAtomic(ablationBits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Set(i % ablationBits)
	}
}

// --- Ablation A2: bitmap granularity -------------------------------------

func benchGranularity(b *testing.B, unit int64) {
	b.Helper()
	const diskBytes = int64(39070) << 20
	bits := int(diskBytes / unit)
	var bm *bitmap.Bitmap
	for i := 0; i < b.N; i++ {
		bm = bitmap.New(bits)
	}
	b.ReportMetric(float64(bm.SizeBytes())/(1<<20), "bitmap-MiB")
}

func BenchmarkGranularity_512B(b *testing.B) { benchGranularity(b, 512) }
func BenchmarkGranularity_4KiB(b *testing.B) { benchGranularity(b, blockdev.BlockSize) }

// --- Ablation A3: delta forwarding vs block-bitmap (redundancy) ----------

// benchScheme runs one small real migration under a rewrite-heavy workload
// and reports the wire bytes moved.
func benchScheme(b *testing.B, delta bool) {
	b.Helper()
	const blocks = 1024
	var migrated, redundant float64
	for i := 0; i < b.N; i++ {
		srcDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		guest := vm.New("g", 1, 64, 256)
		src := core.Host{VM: guest, Backend: blkback.NewBackend(srcDisk, 1)}
		dst := core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(dstDisk, 1)}
		cs, cd := transport.NewPipe(64)

		var router *core.Router
		var fwd *core.DeltaForwarder
		if delta {
			fwd = core.NewDeltaForwarder(src.Backend, cs)
			router = core.NewRouter(fwd.Submit)
		} else {
			router = core.NewRouter(src.Backend.Submit)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // rewrite the same 16 blocks continuously
			defer wg.Done()
			buf := make([]byte, blockdev.BlockSize)
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				router.Submit(blockdev.Request{Op: blockdev.Write, Block: j % 16, Domain: 1, Data: buf})
				time.Sleep(100 * time.Microsecond)
			}
		}()
		// Let the rewriting workload race the copy for a while before the
		// freeze so both schemes face the same redundancy pressure.
		cfgS := core.Config{OnFreeze: func() {
			time.Sleep(30 * time.Millisecond)
			router.Freeze()
		}}
		done := make(chan int64, 1)
		if delta {
			go func() {
				rep, err := core.MigrateDeltaSource(cfgS, src, cs, fwd)
				if err != nil {
					b.Error(err)
					done <- 0
					return
				}
				done <- rep.MigratedBytes
			}()
			res, err := core.MigrateDeltaDest(core.Config{OnResume: func(g *blkback.PostCopyGate) {
				router.ResumeAt(dst.Backend.Submit)
			}}, dst, cd)
			if err != nil {
				b.Fatal(err)
			}
			migrated = float64(<-done)
			redundant += float64(res.Report.StalePushes)
		} else {
			go func() {
				rep, err := core.MigrateSource(cfgS, src, cs, nil)
				if err != nil {
					b.Error(err)
					done <- 0
					return
				}
				done <- rep.MigratedBytes
			}()
			res, err := core.MigrateDest(core.Config{OnResume: func(g *blkback.PostCopyGate) {
				router.ResumeAt(g.Submit)
			}}, dst, cd)
			if err != nil {
				b.Fatal(err)
			}
			migrated = float64(<-done)
			redundant += float64(res.Report.StalePushes)
		}
		close(stop)
		router.ResumeAt(func(blockdev.Request) error { return nil })
		wg.Wait()
	}
	b.ReportMetric(migrated/(1<<20), "migrated-MiB")
	b.ReportMetric(redundant/float64(b.N), "redundant-records")
}

func BenchmarkDeltaVsBitmap_DeltaForward(b *testing.B) { benchScheme(b, true) }
func BenchmarkDeltaVsBitmap_BlockBitmap(b *testing.B)  { benchScheme(b, false) }

// --- Ablation A4: push+pull vs pure-push post-copy ------------------------

// benchPostCopyPolicy measures how long destination reads of dirty blocks
// stall while the source drains a large dirty set, with and without the
// pull path.
func benchPostCopyPolicy(b *testing.B, pullEnabled bool) {
	b.Helper()
	const blocks = 4096
	var stall time.Duration
	for i := 0; i < b.N; i++ {
		dev := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		dirty := bitmap.NewAllSet(blocks)
		pullCh := make(chan int, blocks)
		pull := func(n int) error {
			if pullEnabled {
				pullCh <- n
			}
			return nil
		}
		gate := blkback.NewPostCopyGate(dev, 1, dirty, pull, clock.NewReal())
		stop := make(chan struct{})
		// source: pushes all blocks in order, serving pulls preferentially,
		// pacing each block to emulate wire time.
		go func() {
			buf := make([]byte, blockdev.BlockSize)
			remaining := bitmap.NewAllSet(blocks)
			for remaining.Any() {
				n := -1
				if pullEnabled {
					select {
					case n = <-pullCh:
						if !remaining.Test(n) {
							continue
						}
					default:
					}
				}
				if n < 0 {
					n = remaining.NextSet(0)
				}
				remaining.Clear(n)
				time.Sleep(20 * time.Microsecond) // wire pacing
				gate.ReceiveBlock(n, buf)
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		// destination guest: reads blocks from the tail of the push order.
		buf := make([]byte, blockdev.BlockSize)
		for _, n := range []int{blocks - 1, blocks - 100, blocks - 500, blocks / 2} {
			if err := gate.Submit(blockdev.Request{Op: blockdev.Read, Block: n, Domain: 1, Data: buf}); err != nil {
				b.Fatal(err)
			}
		}
		stall += gate.Stats().ReadStallTime
		close(stop)
		gate.Close()
	}
	b.ReportMetric(float64(stall.Microseconds())/float64(b.N)/4, "stall-us-per-read")
}

func BenchmarkPostCopyPolicy_PushPull(b *testing.B) { benchPostCopyPolicy(b, true) }
func BenchmarkPostCopyPolicy_PurePush(b *testing.B) { benchPostCopyPolicy(b, false) }

// --- Engine end-to-end throughput -----------------------------------------

func BenchmarkEngine_MigrateIdle64MiB(b *testing.B) {
	const blocks = 16384
	b.SetBytes(int64(blocks) * blockdev.BlockSize)
	for i := 0; i < b.N; i++ {
		srcDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		guest := vm.New("g", 1, 64, 256)
		src := core.Host{VM: guest, Backend: blkback.NewBackend(srcDisk, 1)}
		dst := core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(dstDisk, 1)}
		cs, cd := transport.NewPipe(256)
		errCh := make(chan error, 1)
		go func() {
			_, err := core.MigrateSource(core.Config{}, src, cs, nil)
			errCh <- err
		}()
		if _, err := core.MigrateDest(core.Config{}, dst, cd); err != nil {
			b.Fatal(err)
		}
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel transfer: per-block single stream vs striped + coalesced ----

// kernelBuildDisk returns a disk carrying a deterministic kernel-build write
// footprint: the generator's trace applied once, so block contents and
// dirty-set shape match the workload the paper benchmarks.
func kernelBuildDisk(blocks int) *blockdev.MemDisk {
	disk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	gen := workload.New(workload.Kernel, blocks, 1)
	buf := make([]byte, blockdev.BlockSize)
	for i := 0; i < 20000; i++ {
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

// benchMigrateKernelBuild measures end-to-end engine throughput migrating a
// 64 MiB kernel-build image over loopback TCP under a given transfer shape;
// MB/s comes from b.SetBytes. TCP, not an in-process pipe, so each frame
// pays the real per-message flush and syscall cost that extent coalescing
// amortizes and striping overlaps. The idle source disk is reused across
// iterations (a quiescent migration never mutates it). Both endpoints run
// the same Config; negotiated knobs (Streams, CompressLevel) therefore
// always match.
func benchMigrateKernelBuild(b *testing.B, cfg core.Config) {
	b.Helper()
	const blocks = 16384
	srcDisk := kernelBuildDisk(blocks)
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

		type destOut struct {
			conn transport.Conn
			err  error
		}
		destCh := make(chan destOut, 1)
		go func() {
			var conn transport.Conn
			var err error
			if cfg.Streams > 1 {
				conn, err = transport.AcceptStriped(l, nil)
			} else {
				conn, err = transport.Accept(l)
			}
			if err == nil {
				_, err = core.MigrateDest(cfg, dst, conn)
			}
			destCh <- destOut{conn, err}
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
		out := <-destCh
		if out.err != nil {
			b.Fatal(out.err)
		}
		cs.Close()
		if out.conn != nil {
			out.conn.Close()
		}
		l.Close()
	}
}

func BenchmarkMigrateKernelBuildTCP_SingleStreamPerBlock(b *testing.B) {
	benchMigrateKernelBuild(b, core.Config{Streams: 1, MaxExtentBlocks: 1, Workers: 1})
}

func BenchmarkMigrateKernelBuildTCP_Coalesced64(b *testing.B) {
	benchMigrateKernelBuild(b, core.Config{Streams: 1, MaxExtentBlocks: 64, Workers: 1})
}

func BenchmarkMigrateKernelBuildTCP_Striped4Coalesced(b *testing.B) {
	benchMigrateKernelBuild(b, core.Config{Streams: 4, MaxExtentBlocks: 64, Workers: 4})
}

// --- Pooled hot path on real TCP vs the cp floor --------------------------

// The MigrateTCP family pins the zero-copy hot path: the same loopback-TCP
// kernel-build migration as above, in the shapes the pooled-buffer
// discipline targets. Run with -benchmem, allocs/op is the contract — the
// steady state recycles every payload through the transport pool, so the
// per-iteration count stays O(extents), not O(bytes).

// BenchmarkMigrateTCP_Cold is the headline single-stream shape: coalesced
// extents with readahead overlapping device reads and socket writes. Its
// MB/s is the row compared against BenchmarkMigrateTCP_CpBaseline.
func BenchmarkMigrateTCP_Cold(b *testing.B) {
	benchMigrateKernelBuild(b, core.Config{MaxExtentBlocks: 64, Readahead: 4})
}

// BenchmarkMigrateTCP_Striped adds 4-way striping with scatter workers on
// the destination — the pooled buffers cross goroutines and are released at
// the drain barrier.
func BenchmarkMigrateTCP_Striped(b *testing.B) {
	benchMigrateKernelBuild(b, core.Config{Streams: 4, MaxExtentBlocks: 64, Workers: 4})
}

// BenchmarkMigrateTCP_Compressed runs the fastest DEFLATE level through the
// pooled compressor/decompressor pair; throughput is CPU-bound but the
// alloc count must stay flat.
func BenchmarkMigrateTCP_Compressed(b *testing.B) {
	benchMigrateKernelBuild(b, core.Config{MaxExtentBlocks: 64, CompressLevel: 1, Workers: 4})
}

// BenchmarkMigrateTCP_CpBaseline is the wire-speed floor the migration
// engine is chasing: the same 64 MiB image pushed through a raw TCP socket
// in 256 KiB chunks and written block-by-block on the far side — `cp` over
// a socket, no framing, no handshake, no engine. The acceptance bar is
// BenchmarkMigrateTCP_Cold within ~20% of this row's MB/s.
func BenchmarkMigrateTCP_CpBaseline(b *testing.B) {
	const blocks = 16384
	const chunkBlocks = (256 << 10) / blockdev.BlockSize
	srcDisk := kernelBuildDisk(blocks)
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

// benchMigrateModeledLink migrates the kernel-build image over in-process
// pipes wrapped in transport.Latent: every frame pays the per-message flush
// cost of a real link (frameStall), the cost loopback hides. This is the
// configuration the motivation's "latency-bound, not hardware-bound" claim
// is about: per-block single-stream transfer serializes one stall per 4 KiB
// block, while coalescing amortizes the stall over an extent and striping
// overlaps the stalls of different streams.
func benchMigrateModeledLink(b *testing.B, streams, extentBlocks, workers int, newPolicy func() core.Policy) {
	b.Helper()
	const blocks = 16384
	const frameStall = 40 * time.Microsecond // syscall + doorbell + completion
	srcDisk := kernelBuildDisk(blocks)
	b.SetBytes(int64(blocks) * blockdev.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		guest := vm.New("g", 1, 64, 256)
		src := core.Host{VM: guest, Backend: blkback.NewBackend(srcDisk, 1)}
		dst := core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(dstDisk, 1)}
		a := make([]transport.Conn, streams)
		bb := make([]transport.Conn, streams)
		for j := range a {
			pa, pb := transport.NewPipe(256)
			a[j], bb[j] = transport.NewLatent(pa, frameStall), transport.NewLatent(pb, frameStall)
		}
		cs, cd := transport.NewStriped(a), transport.NewStriped(bb)
		cfg := core.Config{Streams: streams, MaxExtentBlocks: extentBlocks, Workers: workers}
		// A fresh policy per migration: policies are stateful and must not be
		// shared, and a reused one would warm-start later iterations.
		srcCfg := cfg
		if newPolicy != nil {
			srcCfg.Policy = newPolicy()
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

func BenchmarkMigrate_SingleStreamPerBlock(b *testing.B) {
	benchMigrateModeledLink(b, 1, 1, 1, nil)
}

func BenchmarkMigrate_Coalesced64(b *testing.B) {
	benchMigrateModeledLink(b, 1, 64, 1, nil)
}

func BenchmarkMigrate_Striped4Coalesced(b *testing.B) {
	benchMigrateModeledLink(b, 4, 64, 4, nil)
}

// BenchmarkMigrate_AdaptivePolicy starts from the seed configuration
// (1 stream, extent 1) and lets core.AdaptivePolicy discover the extent
// size from the link's observed behavior — the acceptance scenario for the
// policy layer: it must land near the hand-tuned Coalesced64 row without
// anyone picking the constant.
func BenchmarkMigrate_AdaptivePolicy(b *testing.B) {
	benchMigrateModeledLink(b, 1, 1, 1, func() core.Policy { return &core.AdaptivePolicy{} })
}

// --- Live migration under a writing guest ---------------------------------

// BenchmarkMigrateLive is the one row with a guest that writes while it is
// migrated: a kernel-build image over modelled GbE under a progress-paced
// rewriter (workload.Paced: per ten units sent, one write of the web trace
// and eight pages of a 256-page hot set). The sequential extent path keeps
// the race in frame order, so wire-bytes/op and skipped/op — units pre-copy
// left out as already dirty again, sent once instead of twice — repeat
// exactly and are comparable across commits.
func BenchmarkMigrateLive(b *testing.B) {
	b.Run("rewrite", func(b *testing.B) {
		const blocks, pages, hotPages = 4096, 1024, 256
		const frameStall = 40 * time.Microsecond
		srcDisk := kernelBuildDisk(blocks)
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
	})
}

// --- Content-addressed dedup: clone-fleet transfer on the modeled link ----

// templateCloneDisk builds a template-provisioned clone image: three
// quarters of the disk cycles `distinct` template payloads (the
// golden-image content every clone shares), the last quarter was never
// written.
func templateCloneDisk(blocks, distinct int) *blockdev.MemDisk {
	disk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < blocks*3/4; n++ {
		workload.FillBlock(buf, n%distinct, 11)
		disk.WriteBlock(n, buf)
	}
	return disk
}

// benchMigrateDedup migrates the clone image over the modeled link: the
// per-frame stall of benchMigrateModeledLink plus a token-bucket bandwidth
// cap standing in for the shared evacuation uplink (the resource `bbench
// -exp cluster` shows saturating first). mode selects the arm: literal
// transfer, dedup against a cold (empty-index) destination, or dedup
// against a warm destination whose index already holds a clone sibling's
// disk — the clone-fleet evacuation case the `bbench -exp dedup` sweep
// models at paper scale. On the capped link the byte collapse is the win:
// wire MiB is reported alongside MB/s of guest image moved per wall second.
func benchMigrateDedup(b *testing.B, mode string) {
	b.Helper()
	const blocks = 16384
	const distinct = 512
	const frameStall = 40 * time.Microsecond
	const linkBps = 100e6 // shared-uplink share, ~paper-testbed Gigabit halved
	srcDisk := templateCloneDisk(blocks, distinct)
	// The warm arm's index is built once, outside the timed loop — hostd
	// scans a sibling disk once per process, not once per migration, and
	// sharing the index across iterations is exactly its deployment shape.
	var warmIdx *dedup.Index
	if mode == "warm" {
		sibling := templateCloneDisk(blocks, distinct)
		warmIdx = dedup.NewIndex(blockdev.BlockSize)
		if err := warmIdx.RegisterSource("disk/sibling", sibling); err != nil {
			b.Fatal(err)
		}
		if _, err := warmIdx.ScanSource("disk/sibling"); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(blocks) * blockdev.BlockSize)
	b.ReportAllocs()
	var wire int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		guest := vm.New("g", 1, 64, 256)
		src := core.Host{VM: guest, Backend: blkback.NewBackend(srcDisk, 1)}
		dst := core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(dstDisk, 1)}
		pa, pb := transport.NewPipe(256)
		var cs transport.Conn = transport.NewShaped(
			transport.NewLatent(pa, frameStall),
			clock.NewRateLimiter(clock.NewReal(), linkBps))
		var cd transport.Conn = transport.NewLatent(pb, frameStall)
		cfg := core.Config{MaxExtentBlocks: 64}
		dcfg := cfg
		switch mode {
		case "cold":
			cfg.Dedup, dcfg.Dedup = true, true
		case "warm":
			cfg.Dedup, dcfg.Dedup = true, true
			dcfg.DedupIndex = warmIdx
			dcfg.DedupName = "disk/clone"
		}
		errCh := make(chan error, 1)
		repCh := make(chan *metrics.Report, 1)
		go func() {
			rep, err := core.MigrateSource(cfg, src, cs, nil)
			repCh <- rep
			errCh <- err
		}()
		if _, err := core.MigrateDest(dcfg, dst, cd); err != nil {
			b.Fatal(err)
		}
		rep := <-repCh
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
		wire = rep.MigratedBytes
		cs.Close()
		cd.Close()
	}
	b.ReportMetric(float64(wire)/(1<<20), "wire-MiB")
}

func BenchmarkMigrate_DedupOff(b *testing.B)  { benchMigrateDedup(b, "literal") }
func BenchmarkMigrate_DedupCold(b *testing.B) { benchMigrateDedup(b, "cold") }
func BenchmarkMigrate_DedupWarm(b *testing.B) { benchMigrateDedup(b, "warm") }

// benchMigrateDelta is the WAN return trip of `bbench -exp wan` on the real
// engine: an incremental migration back toward a host that still holds a
// stale copy of the image, where the dwell's divergence is hot-block
// rewrites (a head touched in place, the tail intact). mode selects the
// arm: literal IM ("off"), delta against a cold destination ("coldsig" —
// every extent buys a signature round trip that cannot win, the protocol's
// overhead floor), and delta against the stale-copy holder ("warm" — the
// rewrites travel as COPY/LITERAL patches). Wire MiB is the headline; on a
// WAN uplink the byte collapse is the trip time.
func benchMigrateDelta(b *testing.B, mode string) {
	b.Helper()
	const blocks = 16384
	const hot = 2048       // rewritten during the dwell — 12.5%, inside the sweep's 11-35%
	const rewriteLen = 256 // bytes touched per rewritten block
	const frameStall = 40 * time.Microsecond
	const upBps = 100e6   // asymmetric WAN: uplink carries the patches,
	const downBps = 400e6 // downlink only the signature replies
	baseline := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	srcDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	buf := make([]byte, blockdev.BlockSize)
	head := make([]byte, blockdev.BlockSize)
	for n := 0; n < blocks; n++ {
		workload.FillBlock(buf, n, 7)
		baseline.WriteBlock(n, buf)
		if n < hot {
			workload.FillBlock(head, n+blocks, 13)
			copy(buf[:rewriteLen], head[:rewriteLen])
		}
		srcDisk.WriteBlock(n, buf)
	}
	b.SetBytes(int64(hot) * blockdev.BlockSize)
	b.ReportAllocs()
	var wire int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		if mode != "coldsig" {
			// The home host retains the pre-dwell image.
			for n := 0; n < blocks; n++ {
				if err := baseline.ReadBlock(n, buf); err != nil {
					b.Fatal(err)
				}
				if err := dstDisk.WriteBlock(n, buf); err != nil {
					b.Fatal(err)
				}
			}
		}
		guest := vm.New("g", 1, 64, 256)
		srcBk := blkback.NewBackend(srcDisk, 1)
		src := core.Host{VM: guest, Backend: srcBk}
		dst := core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(dstDisk, 1)}
		pa, pb := transport.NewPipe(256)
		var cs transport.Conn = transport.NewWAN(pa, frameStall, upBps)
		var cd transport.Conn = transport.NewWAN(pb, frameStall, downBps)
		cfg := core.Config{MaxExtentBlocks: 16, Delta: mode != "off"}
		fresh := bitmap.New(blocks)
		fresh.SetRange(0, hot)
		srcBk.SeedDirty(fresh)
		initial := srcBk.SwapDirty()
		errCh := make(chan error, 1)
		repCh := make(chan *metrics.Report, 1)
		go func() {
			rep, err := core.MigrateSource(cfg, src, cs, initial)
			repCh <- rep
			errCh <- err
		}()
		if _, err := core.MigrateDest(cfg, dst, cd); err != nil {
			b.Fatal(err)
		}
		rep := <-repCh
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
		wire = rep.MigratedBytes
		cs.Close()
		cd.Close()
	}
	b.ReportMetric(float64(wire)/(1<<20), "wire-MiB")
}

func BenchmarkMigrate_DeltaOff(b *testing.B)         { benchMigrateDelta(b, "off") }
func BenchmarkMigrate_DeltaColdSig(b *testing.B)     { benchMigrateDelta(b, "coldsig") }
func BenchmarkMigrate_DeltaWarmRewrite(b *testing.B) { benchMigrateDelta(b, "warm") }

// benchMigrateSwarm is the multi-source arm of the clone-fleet evacuation:
// same clone image, same capped source uplink as benchMigrateDedup, but the
// destination is cold (empty index — the DedupCold case, where single-source
// dedup can only elide zeros) and a peer machine hosting a clone sibling
// serves the shared template content over a sidecar swarm session on an
// uncapped loopback link. The want-set drains through the peer instead of
// the throttled source, so the capped-uplink wall-clock collapses toward the
// DedupWarm row without the destination holding anything in advance.
func benchMigrateSwarm(b *testing.B) {
	b.Helper()
	const blocks = 16384
	const distinct = 512
	const frameStall = 40 * time.Microsecond
	const linkBps = 100e6
	srcDisk := templateCloneDisk(blocks, distinct)
	// The warm peer: a machine hosting a clone sibling of the migrating
	// image. Its index is scanned once per process inside the first
	// ServeSwarm (hostd's scan-once discipline), exactly its deployment
	// shape.
	peer := hostd.NewMachine("P")
	sibling, err := peer.CreateDomain("sibling", blocks, 64, workload.Web, 1, false)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < blocks*3/4; n++ {
		workload.FillBlock(buf, n%distinct, 11)
		sibling.Disk().WriteBlock(n, buf)
	}
	b.SetBytes(int64(blocks) * blockdev.BlockSize)
	b.ReportAllocs()
	var wire int64
	var swarmBlocks int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go func() { _ = peer.ServeSwarm(l, nil) }()
		dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		guest := vm.New("g", 1, 64, 256)
		src := core.Host{VM: guest, Backend: blkback.NewBackend(srcDisk, 1)}
		dst := core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(dstDisk, 1)}
		pa, pb := transport.NewPipe(256)
		var cs transport.Conn = transport.NewShaped(
			transport.NewLatent(pa, frameStall),
			clock.NewRateLimiter(clock.NewReal(), linkBps))
		var cd transport.Conn = transport.NewLatent(pb, frameStall)
		cfg := core.Config{MaxExtentBlocks: 64, Dedup: true}
		dcfg := cfg
		dcfg.SwarmPeers = []string{l.Addr().String()}
		errCh := make(chan error, 1)
		repCh := make(chan *metrics.Report, 1)
		go func() {
			rep, err := core.MigrateSource(cfg, src, cs, nil)
			repCh <- rep
			errCh <- err
		}()
		res, err := core.MigrateDest(dcfg, dst, cd)
		if err != nil {
			b.Fatal(err)
		}
		rep := <-repCh
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
		wire = rep.MigratedBytes
		swarmBlocks = res.Report.SwarmBlocks
		cs.Close()
		cd.Close()
		l.Close()
	}
	if swarmBlocks == 0 {
		b.Fatal("no blocks arrived from the swarm peer")
	}
	b.ReportMetric(float64(wire)/(1<<20), "wire-MiB")
	b.ReportMetric(float64(swarmBlocks), "swarm-blocks")
}

func BenchmarkMigrate_SwarmColdDest(b *testing.B) { benchMigrateSwarm(b) }

// --- Extension benches: compression, vault, traces, host daemon ----------

// benchCompression migrates a zero-heavy disk with and without stream
// compression, reporting wire bytes (§III-A's "compress the transferred
// data" observation).
func benchCompression(b *testing.B, compressed bool) {
	b.Helper()
	const blocks = 4096
	var wire float64
	for i := 0; i < b.N; i++ {
		srcDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		buf := make([]byte, blockdev.BlockSize)
		for n := 0; n < blocks; n += 2 {
			srcDisk.WriteBlock(n, buf) // zero-filled: maximally compressible
		}
		dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		guest := vm.New("g", 1, 64, 256)
		src := core.Host{VM: guest, Backend: blkback.NewBackend(srcDisk, 1)}
		dst := core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(dstDisk, 1)}
		rawS, rawD := transport.NewPipe(256)
		meter := transport.NewMeter(rawS)
		var cs, cd transport.Conn = meter, rawD
		if compressed {
			var err error
			cs, err = transport.NewCompressed(meter, 6)
			if err != nil {
				b.Fatal(err)
			}
			cd, err = transport.NewCompressed(rawD, 6)
			if err != nil {
				b.Fatal(err)
			}
		}
		errCh := make(chan error, 1)
		go func() {
			_, err := core.MigrateSource(core.Config{}, src, cs, nil)
			errCh <- err
		}()
		if _, err := core.MigrateDest(core.Config{}, dst, cd); err != nil {
			b.Fatal(err)
		}
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
		wire = float64(meter.BytesSent())
	}
	b.ReportMetric(wire/(1<<20), "wire-MiB")
}

func BenchmarkCompression_Off(b *testing.B) { benchCompression(b, false) }
func BenchmarkCompression_On(b *testing.B)  { benchCompression(b, true) }

func BenchmarkVaultRecordWrite(b *testing.B) {
	v := core.NewVault(ablationBits)
	for _, p := range []string{"A", "B", "C", "D"} {
		v.MarkSynced(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := i % ablationBits
		v.RecordWriteRange(n, n+1)
	}
}

func BenchmarkVaultMarshal(b *testing.B) {
	v := core.NewVault(ablationBits)
	v.MarkSynced("A")
	v.MarkSynced("B")
	bm := bitmap.New(ablationBits)
	bm.SetRange(0, 200000)
	v.RecordWrites(bm)
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		data, err := v.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		size = len(data)
	}
	b.ReportMetric(float64(size)/(1<<20), "vault-MiB")
}

func BenchmarkTraceRecord(b *testing.B) {
	gen := workload.New(workload.Web, 1<<21, 1)
	var sink countingWriter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Reset()
		sink = 0
		if _, err := workload.Record(gen, 10000, &sink, 1<<21); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(sink))
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// BenchmarkHostdHop measures a full daemon-to-daemon migration of a small
// quiescent domain over loopback TCP, vault hand-off included.
func BenchmarkHostdHop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		A := hostd.NewMachine("A")
		B := hostd.NewMachine("B")
		if _, err := A.CreateDomain("g", 1024, 64, workload.Web, 1, false); err != nil {
			b.Fatal(err)
		}
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		errCh := make(chan error, 1)
		go func() {
			_, err := B.ServeOne(l, core.Config{})
			errCh <- err
		}()
		if _, err := A.MigrateOut("g", "B", l.Addr().String(), core.Config{}); err != nil {
			b.Fatal(err)
		}
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
		l.Close()
	}
}
