// Webmigration: migrate a VM over real TCP while a SPECweb-like dynamic web
// workload keeps hammering its disk — the paper's §VI-C-1 scenario at
// laptop scale. The workload never stops: it is re-routed from the source
// backend to the destination's post-copy gate at the freeze point, and any
// read of a not-yet-transferred block transparently pulls it from the
// source.
//
//	go run ./examples/webmigration
package main

import (
	"fmt"
	"log"
	"sort"
	"sync/atomic"
	"time"

	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/core"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

func main() {
	const (
		blocks  = 8192 // 32 MiB disk
		pages   = 1024 // 4 MiB memory
		domain  = 1
		speedup = 100 // compress workload time 100x
	)

	srcDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	guest := vm.New("webserver", domain, pages, 2048)
	backend := blkback.NewBackend(srcDisk, domain)
	router := core.NewRouter(backend.Submit)
	src := core.Host{VM: guest, Backend: backend}

	dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	dst := core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(dstDisk, domain)}

	// Destination daemon on a real TCP socket.
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	dstDone := make(chan *core.DestResult, 1)
	// Track request latency per migration phase — the paper's §III-A
	// disruption-time metric, as a client of the web server would see it.
	// Only the workload goroutine appends; main reads once it has stopped.
	windows := []string{"before", "freeze+post", "after"}
	lat := make([][]time.Duration, len(windows))
	var window atomic.Int32
	cfg := core.Config{
		OnFreeze: func() {
			window.Store(1)
			router.Freeze()
		},
		OnResume: router.ResumeGate,
	}
	go func() {
		conn, err := transport.Accept(l)
		if err != nil {
			log.Fatalf("accept: %v", err)
		}
		defer conn.Close()
		res, err := core.MigrateDest(cfg, dst, conn)
		if err != nil {
			log.Fatalf("destination: %v", err)
		}
		dstDone <- res
	}()

	// The web workload runs before, during, and after the migration.
	stop := make(chan struct{})
	wlDone := make(chan workload.ReplayStats, 1)
	go func() {
		gen := workload.NewWebServer(blocks, 42)
		timed := func(req blockdev.Request) error {
			start := time.Now()
			err := router.Submit(req)
			w := window.Load()
			lat[w] = append(lat[w], time.Since(start))
			return err
		}
		st, err := workload.Replay(gen, domain, 24*time.Hour, speedup, timed, stop)
		if err != nil {
			log.Fatalf("workload: %v", err)
		}
		wlDone <- st
	}()
	time.Sleep(200 * time.Millisecond) // build up some dirty state first

	conn, err := transport.Dial(l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	fmt.Printf("migrating %q over %s while the web workload runs...\n", guest.Name, l.Addr())
	rep, err := core.MigrateSource(cfg, src, conn, nil)
	if err != nil {
		log.Fatalf("source: %v", err)
	}
	res := <-dstDone

	// Keep serving from the destination for a moment, then stop.
	time.Sleep(100 * time.Millisecond)
	window.Store(2)
	time.Sleep(100 * time.Millisecond)
	close(stop)
	st := <-wlDone

	fmt.Print(rep.String())
	fmt.Printf("workload: %d writes, %d reads across the migration — client-visible stall: %v\n",
		st.Writes, st.Reads, router.StallObserved())
	fmt.Printf("post-copy served %d pulls; %d stale pushes dropped\n",
		res.Report.BlocksPulled, res.Report.StalePushes)
	fmt.Printf("destination accumulated %d fresh blocks for a later incremental migration back\n",
		res.Gate.FreshBitmap().Count())
	fmt.Println("request latency per phase (disruption view, §III-A):")
	for w, d := range lat {
		if n := len(d); n > 0 {
			sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
			fmt.Printf("%-11s n=%-6d p50=%-10v p99=%-10v max=%v\n", windows[w], n, d[(n-1)/2], d[(n-1)*99/100], d[n-1])
		}
	}
}
