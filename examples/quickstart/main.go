// Quickstart: migrate a small VM — disk, memory, CPU state — between two
// in-process hosts over a pipe transport, then verify the destination holds
// an identical copy.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/core"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
)

func main() {
	const (
		blocks = 4096 // 16 MiB disk
		pages  = 512  // 2 MiB memory
		domain = 1
	)

	// Source machine: a running VM with a local disk holding some data.
	srcDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < blocks; n += 2 {
		for i := range buf {
			buf[i] = byte(n + i)
		}
		if err := srcDisk.WriteBlock(n, buf); err != nil {
			log.Fatal(err)
		}
	}
	guest := vm.New("quickstart-guest", domain, pages, 1024)
	src := core.Host{VM: guest, Backend: blkback.NewBackend(srcDisk, domain)}

	// Destination machine: an empty VBD of the same geometry and a VM shell.
	dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	dst := core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(dstDisk, domain)}

	// Wire the two migration daemons together (TCP in production — see
	// examples/webmigration; an in-process pipe here).
	connSrc, connDst := transport.NewPipe(64)

	srcDone := make(chan *metrics.Report, 1)
	go func() {
		rep, err := core.MigrateSource(core.Config{}, src, connSrc, nil)
		if err != nil {
			log.Fatalf("source: %v", err)
		}
		srcDone <- rep
	}()
	res, err := core.MigrateDest(core.Config{}, dst, connDst)
	if err != nil {
		log.Fatalf("destination: %v", err)
	}
	rep := <-srcDone

	fmt.Print(rep.String())
	diffs, err := blockdev.Diff(srcDisk, dstDisk)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("disks identical: %v\n", len(diffs) == 0)
	fmt.Printf("CPU state intact: %v\n", res.CPU.Equal(guest.CPU()))
	fmt.Printf("destination VM: %v; source VM: %v (safe to power off)\n",
		dst.VM.State(), src.VM.State())
}
