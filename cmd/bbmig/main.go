// Command bbmig migrates a virtual machine — disk image, memory, CPU state —
// between two hosts over TCP using three-phase block-bitmap migration.
//
// Destination (run first; prepares a VBD and waits):
//
//	bbmig -mode recv -listen :7011 -image /var/vm/guest.img
//
// Source (migrates the VM whose disk is guest.img):
//
//	bbmig -mode send -addr dsthost:7011 -image /var/vm/guest.img \
//	      -mem-mb 64 -workload web -limit-mbps 0
//
// Because this is a userspace reproduction there is no hypervisor to supply
// a guest: the source synthesizes one (memory pages, CPU state) and can
// drive a chosen synthetic workload against the disk during the migration so
// the pre-copy iterations, freeze bitmap, and post-copy push/pull all do
// real work. With -workload none the image is migrated quiescently.
//
// A single-process demonstration over a loopback TCP connection:
//
//	bbmig -mode demo
//
// Parallel transfer: -streams N opens N TCP connections and stripes block
// data across them, -extent-blocks M coalesces up to M contiguous blocks
// per frame, -workers W reads and encodes (source) and applies (destination)
// extents on W lanes, and -readahead R reads R extents ahead of the encoder.
// The receiver follows everything the sender chooses from the wire: each
// connection labels the bundle's width, and -streams, -compress /
// -compress-level, -dedup and -delta are sender flags. The defaults keep the
// per-block wire format over one connection:
//
//	bbmig -mode recv -listen :7011 -image guest.img
//	bbmig -mode send -addr dst:7011 -image guest.img -streams 4 -extent-blocks 64 -workers 4
//
// -progress prints the engine's live event stream (phase transitions,
// pre-copy iterations, wire-byte heartbeats, suspend/resume, post-copy
// pulls) as the migration runs.
//
// Zero extents: with -extent-blocks above 1, -dedup or -delta on the sender,
// an extent whose blocks are all zero travels as one header-only
// ZERO_EXTENT frame; the summary's dedup line counts those blocks.
//
// Content-addressed dedup: -dedup on the sender replaces literal disk
// transfer with the hash-advert/want-bitmap protocol — any block whose
// content the receiver can already produce (zero, received earlier in the
// same migration, or present on its disk) costs its 16-byte fingerprint, and
// the receiver writes it itself:
//
//	bbmig -mode recv -listen :7011 -image guest.img
//	bbmig -mode send -addr dst:7011 -image guest.img -dedup
//
// Swarm multi-source fetch: -swarm-peers (recv mode) names peer hostd
// swarm-serve addresses; when the sender dedups, blocks it advertises that
// no local content can produce are fetched from those peers over sidecar
// sessions, verified by fingerprint on arrival, and only the remainder
// travels as literals from the source:
//
//	bbmig -mode recv -listen :7011 -image guest.img -swarm-peers peer1:7012,peer2:7012
//
// Delta encoding: -delta on the sender replaces literal transfer of blocks
// whose stale counterpart the destination already holds with
// signature-priced COPY/LITERAL patches — the WAN-friendly path for
// migrating an environment back home after a dwell, when divergence is
// hot-block rewrites. -delta-chunk tunes the receiver-local signature
// chunk size:
//
//	bbmig -mode recv -listen :7011 -image guest.img
//	bbmig -mode send -addr dst:7011 -image guest.img -delta -initial-bitmap fresh.bm
//
// Fault tolerance: -max-retries N makes the sender survive up to N
// connection failures by resuming the session its handshake offered — the
// receiver always offers a reconnect path — re-sending only the blocks the
// receiver hasn't confirmed. -journal FILE saves the blocks still owed, in
// the -initial-bitmap file format, at every checkpoint, and removes the file
// once the migration succeeds; after a sender crash, -resume is
// -initial-bitmap over that file — an incremental re-run of the owed set:
//
//	bbmig -mode send -addr dst:7011 -image src.img -max-retries 5 -journal src.journal
//	bbmig -mode send -addr dst:7011 -image src.img -journal src.journal -resume
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/blockdev/bcache"
	"bbmig/internal/core"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

func main() {
	var (
		mode       = flag.String("mode", "", "send | recv | demo")
		addr       = flag.String("addr", "", "destination address (send mode)")
		listen     = flag.String("listen", ":7011", "listen address (recv mode)")
		image      = flag.String("image", "", "disk image path")
		sizeMB     = flag.Int("size-mb", 256, "image size when creating (MB)")
		memMB      = flag.Int("mem-mb", 64, "guest memory size (MB)")
		wl         = flag.String("workload", "none", "workload during migration: none|web|stream|diabolical|kernel")
		limitMbps  = flag.Int("limit-mbps", 0, "pre-copy bandwidth cap in Mbit/s (0 = unlimited)")
		seed       = flag.Int64("seed", 1, "workload seed")
		speedup    = flag.Float64("speedup", 1, "workload time compression factor")
		compress   = flag.Bool("compress", false, "send: DEFLATE-compress the migration stream at the default level (the receiver follows)")
		compLevel  = flag.Int("compress-level", 0, "send: explicit flate level -2..9, overrides -compress (the receiver follows)")
		progress   = flag.Bool("progress", false, "print live phase/iteration/byte progress events")
		streams    = flag.Int("streams", 1, "send: parallel transport connections (the receiver follows)")
		extentBlk  = flag.Int("extent-blocks", 1, "send: max contiguous blocks coalesced per frame")
		workers    = flag.Int("workers", 1, "send: read-and-encode lanes (device read, frame, compress, send) unless -dedup or -delta needs cursor order; recv: apply lanes")
		readahead  = flag.Int("readahead", 0, "send: extents read into pooled buffers ahead of the encoder, under any -workers (0 = sequential)")
		dedupFlag  = flag.Bool("dedup", false, "send: content-addressed dedup: ship block fingerprints and references instead of known bytes (the receiver follows)")
		swarmPeers = flag.String("swarm-peers", "", "recv: comma-separated peer swarm-serve addresses to fetch wanted blocks from when the sender dedups")
		deltaFlag  = flag.Bool("delta", false, "send: delta-encode blocks against the destination's stale copies (the receiver follows)")
		deltaChunk = flag.Int("delta-chunk", 0, "recv: signature chunk size in bytes (0 = default 128; local, travels inside each signature)")
		initialBM  = flag.String("initial-bitmap", "", "send: bitmap file selecting blocks for an incremental migration")
		freshBM    = flag.String("fresh-bitmap", "", "recv: file to save the fresh-write bitmap to (enables a later IM back)")
		retries    = flag.Int("max-retries", 0, "send: survive this many connection failures by resuming the session (0 = fail fast)")
		backoff    = flag.Duration("retry-backoff", 0, "send: base reconnect delay (doubles per attempt; 0 = default)")
		journal    = flag.String("journal", "", "send: save the blocks still owed to this bitmap file at every checkpoint (removed on success)")
		resume     = flag.Bool("resume", false, "send: cold-resume from -journal after a source restart: -initial-bitmap over it (incremental re-run of the owed blocks)")
		cacheBlk   = flag.Int("cache-blocks", 0, "front the image with a write-back block cache of this many blocks; migration reads come from CoW snapshots of it (0 = direct file I/O)")
	)
	flag.Parse()

	level := *compLevel
	if level == 0 && *compress {
		level = -1 // flate.DefaultCompression
	}
	opts := xferOpts{
		streams: *streams, extentBlocks: *extentBlk, workers: *workers,
		readahead: *readahead, compressLevel: level, dedup: *dedupFlag,
		delta: *deltaFlag, deltaChunk: *deltaChunk,
		progress: *progress, maxRetries: *retries, retryBackoff: *backoff,
		journalPath: *journal, cacheBlocks: *cacheBlk,
	}
	if *swarmPeers != "" {
		opts.swarmPeers = strings.Split(*swarmPeers, ",")
	}
	var err error
	switch *mode {
	case "send":
		if *resume {
			if *journal == "" {
				err = fmt.Errorf("-resume needs -journal")
				break
			}
			*initialBM = *journal
		}
		err = runSend(*addr, *image, *sizeMB, *memMB, *wl, *limitMbps, *seed, *speedup, opts, *initialBM)
	case "recv":
		err = runRecv(*listen, *image, *sizeMB, *memMB, opts, *freshBM)
	case "demo":
		err = runDemo(*sizeMB, *memMB, *wl, *seed, opts)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bbmig: %v\n", err)
		os.Exit(1)
	}
}

func pickWorkload(name string) (workload.Kind, bool) {
	switch name {
	case "web":
		return workload.Web, true
	case "stream":
		return workload.Stream, true
	case "diabolical":
		return workload.Diabolic, true
	case "kernel":
		return workload.Kernel, true
	default:
		return 0, false
	}
}

func openOrCreate(path string, sizeMB int) (*blockdev.FileDisk, error) {
	if _, err := os.Stat(path); err == nil {
		return blockdev.OpenFileDisk(path, blockdev.BlockSize)
	}
	blocks := sizeMB << 20 / blockdev.BlockSize
	return blockdev.CreateFileDisk(path, blocks, blockdev.BlockSize)
}

// xferOpts bundles the transfer-shape knobs of both endpoints; each side
// reads the ones that are its own. Compression is not a connection-layer
// wrap here: it rides in core.Config.CompressLevel and the engine decorates
// its own stream, so the cmd layer only builds the raw striped bundle.
type xferOpts struct {
	streams       int
	extentBlocks  int
	workers       int
	readahead     int
	compressLevel int
	dedup         bool
	delta         bool
	deltaChunk    int
	swarmPeers    []string
	progress      bool
	maxRetries    int
	retryBackoff  time.Duration
	journalPath   string
	cacheBlocks   int
}

// config renders the shared knobs as an engine Config.
func (o xferOpts) config() core.Config {
	cfg := core.Config{
		Streams:         o.streams,
		MaxExtentBlocks: o.extentBlocks,
		Workers:         o.workers,
		Readahead:       o.readahead,
		CompressLevel:   o.compressLevel,
		Dedup:           o.dedup,
		Delta:           o.delta,
		DeltaChunk:      o.deltaChunk,
		SwarmPeers:      o.swarmPeers,
		MaxRetries:      o.maxRetries,
		RetryBackoff:    o.retryBackoff,
		JournalPath:     o.journalPath,
	}
	if o.progress {
		cfg.OnEvent = progressPrinter()
	}
	return cfg
}

// progressPrinter renders engine events as human-readable progress lines.
func progressPrinter() core.EventFunc {
	var mu sync.Mutex
	return func(ev core.Event) {
		mu.Lock()
		defer mu.Unlock()
		at := ev.At.Round(time.Millisecond)
		switch ev.Kind {
		case core.EventPhaseStart:
			fmt.Printf("[%s %7v] phase %s\n", ev.Side, at, ev.Phase)
		case core.EventIterationEnd:
			fmt.Printf("[%s %7v] %s iteration %d: %d units sent, %d skipped as re-dirtied, %.1f MiB, %d dirty\n",
				ev.Side, at, ev.Phase, ev.Iteration, ev.Units, ev.Skipped, float64(ev.Bytes)/(1<<20), ev.Dirty)
		case core.EventBytesTransferred:
			fmt.Printf("[%s %7v] %.0f MiB on the wire\n", ev.Side, at, float64(ev.Bytes)/(1<<20))
		case core.EventSuspended:
			fmt.Printf("[%s %7v] VM suspended (downtime begins)\n", ev.Side, at)
		case core.EventResumed:
			fmt.Printf("[%s %7v] VM running on destination (downtime over)\n", ev.Side, at)
		case core.EventPullServed:
			fmt.Printf("[%s %7v] pull served for block %d\n", ev.Side, at, ev.Units)
		case core.EventCompleted:
			fmt.Printf("[%s %7v] migration complete: %.1f MiB total\n", ev.Side, at, float64(ev.Bytes)/(1<<20))
		case core.EventFailed:
			fmt.Printf("[%s %7v] migration FAILED in %s: %s\n", ev.Side, at, ev.Phase, ev.Err)
		}
	}
}

// cacheWrap fronts a file-backed image with a write-back block cache when
// -cache-blocks is set; the engine then reads pre-copy data from CoW
// snapshots of the cache instead of the contended live device. The returned
// flush writes buffered dirty blocks back to the file and must run before
// the image file is read directly, synced, or closed.
func cacheWrap(fd *blockdev.FileDisk, opts xferOpts) (blockdev.Device, func() error) {
	if opts.cacheBlocks <= 0 {
		return fd, func() error { return nil }
	}
	vol := bcache.New(fd, opts.cacheBlocks)
	return vol, vol.Release
}

func runSend(addr, image string, sizeMB, memMB int, wl string, limitMbps int, seed int64, speedup float64, opts xferOpts, initialBMPath string) error {
	if addr == "" || image == "" {
		return fmt.Errorf("send mode needs -addr and -image")
	}
	disk, err := openOrCreate(image, sizeMB)
	if err != nil {
		return err
	}
	defer disk.Close()
	dev, flushCache := cacheWrap(disk, opts)
	defer func() { _ = flushCache() }() // error path; the success path flushes explicitly
	guest := vm.New("guest", 1, memMB<<20/vm.PageSize, 4096)
	backend := blkback.NewBackend(dev, guest.DomainID)
	router := core.NewRouter(backend.Submit)
	var initial *bitmap.Bitmap
	if initialBMPath != "" {
		initial, err = bitmap.LoadFile(initialBMPath)
		if err != nil {
			return err
		}
		if initial.Len() != disk.NumBlocks() {
			return fmt.Errorf("initial bitmap covers %d blocks, disk has %d", initial.Len(), disk.NumBlocks())
		}
		backend.SeedDirty(initial)
		initial = backend.SwapDirty()
		// Every guest write from here on is owed too: track from before the
		// workload starts, not from the engine's disk pre-copy.
		backend.StartTracking()
		fmt.Printf("incremental migration: %d blocks to send\n", initial.Count())
	}

	// Optional synthetic workload during the migration.
	stop := make(chan struct{})
	done := make(chan error, 1)
	if kind, ok := pickWorkload(wl); ok {
		gen := workload.New(kind, disk.NumBlocks(), seed)
		go func() {
			_, err := workload.Replay(gen, guest.DomainID, 24*time.Hour, speedup, router.Submit, stop)
			done <- err
		}()
		fmt.Printf("driving %s workload against %s during migration\n", kind, image)
	} else {
		done <- nil
	}

	conn, err := transport.DialStriped(addr, max(opts.streams, 1), nil)
	if err != nil {
		return err
	}
	var cur transport.Conn = conn
	defer func() { cur.Close() }()
	cfg := opts.config()
	cfg.OnFreeze = router.Freeze
	if limitMbps > 0 {
		cfg.BandwidthLimit = int64(limitMbps) * 1e6 / 8
	}
	if cfg.MaxRetries > 0 {
		// Reconnects re-dial a single plain stream; the engine resumes the
		// session on it, compression and all.
		cfg.Redial = func() (transport.Conn, error) {
			c, err := transport.Dial(addr)
			if err != nil {
				return nil, err
			}
			cur = c
			return c, nil
		}
	}
	fmt.Printf("migrating %s (%d MB disk, %d MB memory) to %s...\n",
		image, int(blockdev.Capacity(disk)>>20), memMB, addr)
	rep, err := core.MigrateSource(cfg, core.Host{VM: guest, Backend: backend}, conn, initial)
	// The VM now runs on the destination; release any workload I/O frozen
	// at the freeze point by routing it to a sink, then stop the driver.
	router.ResumeAt(func(blockdev.Request) error { return nil })
	close(stop)
	if werr := <-done; werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	if err := flushCache(); err != nil {
		return err
	}
	fmt.Print(rep.String())
	if rep.Retries > 0 {
		fmt.Printf("survived %d connection failure(s) by resuming the session\n", rep.Retries)
	}
	fmt.Println("source VM stopped; this machine can be shut down (finite dependency)")
	return nil
}

func runRecv(listenAddr, image string, sizeMB, memMB int, opts xferOpts, freshBMPath string) error {
	if image == "" {
		return fmt.Errorf("recv mode needs -image")
	}
	l, err := transport.Listen(listenAddr)
	if err != nil {
		return err
	}
	defer l.Close()
	return recvServe(l, image, sizeMB, memMB, opts, freshBMPath)
}

// recvServe accepts one migration on an already-bound listener; split from
// runRecv so tests (and the demo) can bind the port themselves.
func recvServe(l net.Listener, image string, sizeMB, memMB int, opts xferOpts, freshBMPath string) error {
	fmt.Printf("waiting for migration on %s...\n", l.Addr())
	conn, err := transport.AcceptStriped(l, nil)
	if err != nil {
		return err
	}
	defer conn.Close()

	disk, err := openOrCreate(image, sizeMB)
	if err != nil {
		return err
	}
	defer disk.Close()
	dev, flushCache := cacheWrap(disk, opts)
	defer func() { _ = flushCache() }()
	shell := vm.New("guest", 1, memMB<<20/vm.PageSize, 0)
	shell.Suspend() // destination shells are born frozen
	backend := blkback.NewBackend(dev, shell.DomainID)

	cfg := opts.config()
	cfg.OnResume = func(g *blkback.PostCopyGate) {
		fmt.Println("VM resumed here; post-copy synchronization running")
	}
	// Always offer a reconnect path: it only activates when the sender's
	// HELLO offers a resumable session.
	cfg.WaitReconnect = func(token transport.SessionToken, lastEpoch uint32) (transport.Conn, uint32, error) {
		fmt.Println("link lost; waiting for the source to reconnect...")
		return transport.AcceptResume(l, token, lastEpoch, transport.DefaultResumeWait)
	}
	res, err := core.MigrateDest(cfg, core.Host{VM: shell, Backend: backend}, conn)
	if err != nil {
		return err
	}
	if err := flushCache(); err != nil {
		return err
	}
	if err := disk.Sync(); err != nil {
		return err
	}
	fmt.Printf("migration complete: disk synchronized, %d bytes CPU state, VM %v\n",
		len(res.CPU.Registers), shell.State())
	fmt.Printf("post-copy: %d blocks pulled, %d stale pushes dropped\n",
		res.Report.BlocksPulled, res.Report.StalePushes)
	fresh := res.Gate.FreshBitmap()
	fmt.Printf("fresh-write bitmap holds %d blocks for an incremental migration back\n", fresh.Count())
	if freshBMPath != "" {
		if err := fresh.SaveFile(freshBMPath); err != nil {
			return err
		}
		fmt.Printf("fresh bitmap saved to %s (use as -initial-bitmap when migrating back)\n", freshBMPath)
	}
	return nil
}

// runDemo migrates a synthetic VM over loopback TCP inside one process: the
// receiver binds an ephemeral port and the sender dials it.
func runDemo(sizeMB, memMB int, wl string, seed int64, opts xferOpts) error {
	dir, err := os.MkdirTemp("", "bbmig-demo")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srcImg := dir + "/src.img"
	dstImg := dir + "/dst.img"

	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	errCh := make(chan error, 1)
	go func() {
		conn, err := transport.AcceptStriped(l, nil)
		if err != nil {
			errCh <- err
			return
		}
		defer conn.Close()
		disk, err := openOrCreate(dstImg, sizeMB)
		if err != nil {
			errCh <- err
			return
		}
		defer disk.Close()
		dev, flushCache := cacheWrap(disk, opts)
		shell := vm.New("guest", 1, memMB<<20/vm.PageSize, 0)
		shell.Suspend()
		backend := blkback.NewBackend(dev, shell.DomainID)
		res, err := core.MigrateDest(opts.config(), core.Host{VM: shell, Backend: backend}, conn)
		if ferr := flushCache(); ferr != nil && err == nil {
			err = ferr // the image file is compared below; buffered blocks must land
		}
		if err == nil {
			fmt.Printf("demo receiver: synchronized; %d blocks pulled, fresh bitmap %d blocks\n",
				res.Report.BlocksPulled, res.Gate.FreshBitmap().Count())
		}
		errCh <- err
	}()

	if wl == "" || wl == "none" {
		wl = "web"
	}
	if err := runSend(l.Addr().String(), srcImg, sizeMB, memMB, wl, 0, seed, 50, opts, ""); err != nil {
		return err
	}
	if err := <-errCh; err != nil {
		return err
	}
	same, err := imagesEqual(srcImg, dstImg)
	if err != nil {
		return err
	}
	fmt.Printf("demo: destination image matches the source's frozen state: %v\n", same)
	return nil
}

func imagesEqual(a, b string) (bool, error) {
	da, err := blockdev.OpenFileDisk(a, blockdev.BlockSize)
	if err != nil {
		return false, err
	}
	defer da.Close()
	db, err := blockdev.OpenFileDisk(b, blockdev.BlockSize)
	if err != nil {
		return false, err
	}
	defer db.Close()
	diffs, err := blockdev.Diff(da, db)
	if err != nil {
		return false, err
	}
	return len(diffs) == 0, nil
}
