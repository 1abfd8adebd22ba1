// Diabolical: the paper's §VI-C-3 experiment. Migrate a VM running a
// Bonnie++-like disk exerciser twice — once with unlimited migration
// bandwidth, once with the pre-copy rate capped — and watch the trade-off:
// the cap roughly halves the impact on the workload but lengthens the
// pre-copy phase. The laptop-scale run uses the real engine; the program
// then replays the same experiment at the paper's 39 070 MB scale on the
// virtual-clock simulator.
//
//	go run ./examples/diabolical
package main

import (
	"fmt"
	"log"
	"time"

	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/clock"
	"bbmig/internal/core"
	"bbmig/internal/metrics"
	"bbmig/internal/sim"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

const (
	blocks = 16384 // 64 MiB disk
	pages  = 512
	domain = 1
)

// runOnce migrates under the diabolical workload with the given bandwidth
// cap and reports the migration plus achieved workload ops.
func runOnce(capBytesPerSec int64) (*metrics.Report, int64) {
	srcDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	guest := vm.New("diabolical", domain, pages, 1024)
	src := core.Host{VM: guest, Backend: blkback.NewBackend(srcDisk, domain)}
	dst := core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(dstDisk, domain)}
	router := core.NewRouter(src.Backend.Submit)

	stop := make(chan struct{})
	opsCh := make(chan int64, 1)
	go func() {
		gen := workload.NewDiabolical(blocks, 3)
		gen.FileBlocks = blocks / 4
		gen.FileAStart = blocks / 8
		gen.FileBStart = blocks/8 + gen.FileBlocks + 64
		gen.Reset()
		st, err := workload.Replay(clock.NewReal(), gen, domain, 24*time.Hour, 40, router.Submit, stop)
		if err != nil {
			log.Fatalf("workload: %v", err)
		}
		opsCh <- st.Writes + st.Reads
	}()
	time.Sleep(100 * time.Millisecond)

	connSrc, connDst := transport.NewPipe(64)
	cfg := core.Config{
		OnFreeze:       router.Freeze,
		OnResume:       router.ResumeGate,
		BandwidthLimit: capBytesPerSec,
	}
	repCh := make(chan *metrics.Report, 1)
	go func() {
		rep, err := core.MigrateSource(cfg, src, connSrc, nil)
		if err != nil {
			log.Fatalf("source: %v", err)
		}
		repCh <- rep
	}()
	if _, err := core.MigrateDest(cfg, dst, connDst); err != nil {
		log.Fatalf("destination: %v", err)
	}
	rep := <-repCh
	close(stop)
	return rep, <-opsCh
}

func main() {
	fmt.Println("== laptop scale (64 MiB disk, real engine over a pipe) ==")
	unlimited, opsU := runOnce(0)
	limited, opsL := runOnce(24 << 20) // 24 MiB/s cap
	fmt.Printf("unlimited: pre-copy %6.0f ms, downtime %3d ms, %d workload ops completed\n",
		unlimited.PreCopyTime.Seconds()*1000, unlimited.Downtime.Milliseconds(), opsU)
	fmt.Printf("capped:    pre-copy %6.0f ms, downtime %3d ms, %d workload ops completed\n",
		limited.PreCopyTime.Seconds()*1000, limited.Downtime.Milliseconds(), opsL)
	fmt.Printf("the cap lengthens pre-copy %.1fx while the workload keeps more of the disk\n\n",
		limited.PreCopyTime.Seconds()/unlimited.PreCopyTime.Seconds())

	fmt.Println("== paper scale (39 070 MB disk, virtual clock) ==")
	unl, lim := sim.Fig6(1)
	impact := func(r *sim.Result) float64 {
		free := r.WorkloadSeries.Mean(r.MigEnd+2*time.Minute, r.MigEnd+8*time.Minute)
		during := r.WorkloadSeries.Mean(r.MigStart, r.MigEnd)
		return (1 - during/free) * 100
	}
	fmt.Printf("unlimited: Bonnie++ impact %4.1f%%, pre-copy %4.0f s\n", impact(unl), unl.Report.PreCopyTime.Seconds())
	fmt.Printf("limited:   Bonnie++ impact %4.1f%%, pre-copy %4.0f s (+%.0f%%)\n",
		impact(lim), lim.Report.PreCopyTime.Seconds(),
		(lim.Report.PreCopyTime.Seconds()/unl.Report.PreCopyTime.Seconds()-1)*100)
	fmt.Println("paper §VI-C-3: impact reduced about 50%, pre-copy about 37% longer")
}
