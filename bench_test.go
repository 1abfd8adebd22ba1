// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VI) plus the design-choice ablations listed in DESIGN.md. Each benchmark
// reports the paper-comparable quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints rows directly comparable to Tables I-III and Figures 5-6. The
// cmd/bbench tool prints the same data as formatted tables. The real-engine
// migration rows (modelled links, loopback TCP, live guests, dedup, delta,
// swarm) are defined once, in cmd/bbench's suite, and run there under
// `go test -bench Suite ./cmd/bbench`.
package bbmig_test

import (
	"sync"
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/core"
	"bbmig/internal/hostd"
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
		gate := blkback.NewPostCopyGate(dev, 1, dirty, pull)
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

// --- Extension benches: vault, traces, host daemon ------------------------

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
		tw, err := workload.NewTraceWriter(&sink, 1<<21)
		if err != nil {
			b.Fatal(err)
		}
		for range 10000 {
			if err := tw.Append(gen.Next()); err != nil {
				b.Fatal(err)
			}
		}
		if err := tw.Flush(); err != nil {
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
