package bbmig_test

import (
	"fmt"
	"log"

	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/cluster"
	"bbmig/internal/core"
	"bbmig/internal/hostd"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// Example migrates a small VM between two in-process hosts and verifies the
// destination holds an identical copy — the library's minimal end-to-end
// wiring. Production use replaces NewPipe with Dial/Listen/Accept over TCP
// and routes live guest I/O through a Router (see cmd/bbmig's demo mode).
func Example() {
	const blocks, pages, domain = 1024, 64, 1

	// Source machine: a running VM with some data on its local disk.
	srcDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < blocks; n += 4 {
		buf[0] = byte(n)
		srcDisk.WriteBlock(n, buf)
	}
	guest := vm.New("guest", domain, pages, 512)
	src := core.Host{VM: guest, Backend: blkback.NewBackend(srcDisk, domain)}

	// Destination machine: an empty VBD and a VM shell.
	dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	dst := core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(dstDisk, domain)}

	connSrc, connDst := transport.NewPipe(64)
	go func() {
		if _, err := core.MigrateSource(core.Config{}, src, connSrc, nil); err != nil {
			log.Fatal(err)
		}
	}()
	res, err := core.MigrateDest(core.Config{}, dst, connDst)
	if err != nil {
		log.Fatal(err)
	}

	diffs, _ := blockdev.Diff(srcDisk, dstDisk)
	fmt.Println("disks identical:", len(diffs) == 0)
	fmt.Println("gate synchronized:", res.Gate.Synchronized())
	fmt.Println("destination running:", dst.VM.State())
	// Output:
	// disks identical: true
	// gate synchronized: true
	// destination running: running
}

// Example_cluster drains a host through the cluster orchestrator: three
// registered machines, two domains on the first, one Drain call that
// places, pre-syncs, and migrates every guest off it over loopback TCP.
func Example_cluster() {
	fleet := cluster.New(cluster.Options{
		GlobalBandwidth: 200e6, // concurrent migrations share 200 MB/s
	})
	hosts := make([]*hostd.Machine, 3)
	for i := range hosts {
		hosts[i] = hostd.NewMachine(fmt.Sprintf("rack%d", i))
		if err := fleet.Register(hosts[i], cluster.MemberOptions{Capacity: 4}); err != nil {
			log.Fatal(err)
		}
	}
	for _, name := range []string{"vm-a", "vm-b"} {
		if _, err := hosts[0].CreateDomain(name, 1024, 64, workload.Web, 1, false); err != nil {
			log.Fatal(err)
		}
	}

	res, err := fleet.Drain("rack0", cluster.DrainOptions{PreSync: true})
	if err != nil {
		log.Fatal(err)
	}
	for _, mv := range res.Moves {
		if mv.Err != nil {
			log.Fatal(mv.Err)
		}
		fmt.Printf("%s -> pre-synced %d blocks, cutover iteration 1 sent %d\n",
			mv.Domain, mv.Sync.Blocks, mv.Report.DiskIterations[0].Units)
	}
	fmt.Println("rack0 hosts", hosts[0].Load().Domains, "domains; evacuees spread:",
		hosts[1].Load().Domains+hosts[2].Load().Domains)
	// Output:
	// vm-a -> pre-synced 1024 blocks, cutover iteration 1 sent 0
	// vm-b -> pre-synced 1024 blocks, cutover iteration 1 sent 0
	// rack0 hosts 0 domains; evacuees spread: 2
}

// Example_dedup migrates a template-provisioned VM with content-addressed
// deduplication (Config.Dedup): half the disk cycles 8 template payloads,
// the rest was never written. Each template payload crosses the wire once,
// its repeats cost their 16-byte fingerprints (the destination writes them
// itself), and the zero half is elided outright — yet the destination disk
// is byte-identical. hostd shares one dedup.Index per machine, so a second
// clone migrating to the same host would arrive almost entirely as
// fingerprints.
func Example_dedup() {
	const blocks, pages, domain = 2048, 16, 1

	srcDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < blocks/2; n++ {
		buf[0] = byte(n%8) + 1 // 8 distinct template payloads, endlessly repeated
		srcDisk.WriteBlock(n, buf)
	}
	guest := vm.New("clone", domain, pages, 512)
	src := core.Host{VM: guest, Backend: blkback.NewBackend(srcDisk, domain)}

	dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	dst := core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(dstDisk, domain)}

	cfg := core.Config{Dedup: true, MaxExtentBlocks: 64}
	connSrc, connDst := transport.NewPipe(64)
	repCh := make(chan *metrics.Report, 1)
	go func() {
		rep, err := core.MigrateSource(cfg, src, connSrc, nil)
		if err != nil {
			log.Fatal(err)
		}
		repCh <- rep
	}()
	if _, err := core.MigrateDest(cfg, dst, connDst); err != nil {
		log.Fatal(err)
	}
	rep := <-repCh

	diffs, _ := blockdev.Diff(srcDisk, dstDisk)
	fmt.Println("disks identical:", len(diffs) == 0)
	fmt.Println("blocks by reference:", rep.DedupBlocks)
	fmt.Println("moved less than a tenth of the image:",
		rep.MigratedBytes*10 < int64(blocks)*blockdev.BlockSize)
	// Output:
	// disks identical: true
	// blocks by reference: 1984
	// moved less than a tenth of the image: true
}
