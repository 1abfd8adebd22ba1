// Micro-benchmarks that stay on the wall clock: per-call costs of the
// interception path, the bitmap, the vault and the trace writer, a daemon
// hop over loopback TCP, and the post-copy policy ablation. The paper's
// tables and figures render from the simulator with goldens under
// `bbench -exp` (cmd/bbench/testdata), the real-engine migration rows are
// cmd/bbench's suite (`go test -bench Suite ./cmd/bbench`), and the scheme
// comparison of §II is the schemes rows of internal/core's virtual.golden.
//
//	go test -run xxx -bench . -benchmem
package bbmig_test

import (
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/core"
	"bbmig/internal/hostd"
	"bbmig/internal/transport"
	"bbmig/internal/workload"
)

// --- Table III: write-tracking overhead on the real interception path ---

// Not a golden: a per-write time on this CPU, which `bbench -exp table3`
// folds into the paper's disk rates and so cannot render exactly.
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

// --- Ablation A1: word-at-a-time scan of a sparse paper-scale bitmap ------

// Not a bbench row: per-call times of one type, where the suite's
// BitmapMarshal rows measure the freeze bitmap's wire encoding.
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

// --- Ablation A4: push+pull vs pure-push post-copy ------------------------

// Not a golden: the gate is driven by a hand-written pusher that sleeps on
// the wall clock, an ablation of the pull path no engine scheme runs.
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

// Not bbench rows: per-call costs of the vault and the trace writer, and a
// daemon hop whose announce and vault hand-off the engine suite never runs.
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
