// Incremental: the paper's §V telecommuting scenario. Migrate a workstation
// VM from the office to home, keep working there (the destination tracks
// every write in a fresh block-bitmap), then migrate back — transferring
// only the blocks dirtied at home instead of the whole disk.
//
//	go run ./examples/incremental
package main

import (
	"fmt"
	"log"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/core"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

const (
	blocks = 8192 // 32 MiB disk
	pages  = 512
	domain = 1
)

// migrate runs one full TPM/IM migration between two hosts over a pipe and
// returns both reports.
func migrate(src, dst core.Host, router *core.Router, initial *bitmap.Bitmap) (*metrics.Report, *core.DestResult) {
	connSrc, connDst := transport.NewPipe(64)
	cfg := core.Config{OnFreeze: router.Freeze, OnResume: router.ResumeGate}
	repCh := make(chan *metrics.Report, 1)
	go func() {
		rep, err := core.MigrateSource(cfg, src, connSrc, initial)
		if err != nil {
			log.Fatalf("source: %v", err)
		}
		repCh <- rep
	}()
	res, err := core.MigrateDest(cfg, dst, connDst)
	if err != nil {
		log.Fatalf("destination: %v", err)
	}
	return <-repCh, res
}

func main() {
	officeDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	homeDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	guest := vm.New("workstation", domain, pages, 1024)

	office := core.Host{VM: guest, Backend: blkback.NewBackend(officeDisk, domain)}
	router := core.NewRouter(office.Backend.Submit)

	// A kernel-build-like workload stands in for the user's work session.
	stop := make(chan struct{})
	go func() {
		gen := workload.NewKernelBuild(blocks, 7)
		if _, err := workload.Replay(gen, domain, 24*time.Hour, 150, router.Submit, stop); err != nil {
			log.Fatalf("workload: %v", err)
		}
	}()
	time.Sleep(100 * time.Millisecond)

	// Evening: office → home, whole system.
	home := core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(homeDisk, domain)}
	repOut, resOut := migrate(office, home, router, nil)
	fmt.Println("== primary migration office → home ==")
	fmt.Print(repOut.String())

	// Work from home for a while; the gate records every write.
	time.Sleep(300 * time.Millisecond)
	close(stop)
	time.Sleep(20 * time.Millisecond) // drain the last request

	// Morning: home → office, incrementally. The home side seeds its
	// backend with the fresh bitmap; only those blocks travel.
	backSrc := core.Host{VM: home.VM, Backend: blkback.NewBackend(homeDisk, domain)}
	backSrc.Backend.SeedDirty(resOut.Gate.FreshBitmap())
	backDst := core.Host{VM: vm.NewDestination(home.VM), Backend: blkback.NewBackend(officeDisk, domain)}
	router2 := core.NewRouter(backSrc.Backend.Submit)
	repBack, _ := migrate(backSrc, backDst, router2, backSrc.Backend.SwapDirty())
	fmt.Println("== incremental migration home → office ==")
	fmt.Print(repBack.String())

	diskBytes := func(r *metrics.Report) int64 {
		var total int64
		for _, it := range r.DiskIterations {
			total += it.Bytes
		}
		return total
	}
	fmt.Printf("IM moved %.1f%% of the primary migration's total bytes and %.1f%% of its disk bytes\n",
		float64(repBack.MigratedBytes)/float64(repOut.MigratedBytes)*100,
		float64(diskBytes(repBack))/float64(diskBytes(repOut))*100)
	diffs, err := blockdev.Diff(officeDisk, homeDisk)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("office and home disks identical after the round trip: %v\n", len(diffs) == 0)
}
