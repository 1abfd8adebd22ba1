package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/blockdev/bcache"
	"bbmig/internal/core"
	"bbmig/internal/dedup"
	"bbmig/internal/hostd"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// This file is the machine-readable benchmark harness: `bbench -json FILE`
// runs the suite — real-engine migrations over modelled links and loopback
// TCP, the bitmap codec, the snapshot block layer — and writes a BENCH_*.json
// snapshot of what the machine sets: time, throughput and heap cost per op.
// What the engine sets — bytes, frames, requests, hashes — is exact, so
// `bbench -exp counts` prints it from one counting pass per row and
// testdata/counts.golden holds it byte for byte. Every row is defined once,
// in suite; BenchmarkSuite runs the same table under `go test`.

// benchResult is one benchmark's outcome.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations,omitempty"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	PoolSlack   float64 `json:"pool_slack,omitempty"` // the one engine count that is not exact (tcpRow)
}

// benchFile is the BENCH_*.json schema, versioned within "bbmig-bench/v1":
// v1.1 added allocs_per_op and the MigrateTCP rows, v1.2 bytes_per_op and the
// MigrateDedup row. Readers accept any v1* snapshot (missing fields decode
// to zero), so -compare still reads a pre-bump baseline.
type benchFile struct {
	Schema     string        `json:"schema"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// row is one row of the suite: its name in BENCH_*.json, the timed body
// testing.Benchmark drives, and count, which runs the row's counting pass
// once and renders its counts for `bbench -exp counts` (nil where the row
// counts nothing).
type row struct {
	name  string
	run   func(*testing.B)
	count func() (string, error)
}

const (
	blocks      = 4096                  // 16 MiB image keeps the suite fast enough for CI
	tcpBlocks   = 16384                 // 64 MiB over TCP, so the steady state, not the handshake, dominates
	paperBlocks = 10_001_920            // the paper's 39 070 MB disk
	templates   = 512                   // the payloads a template clone cycles
	frameStall  = 40 * time.Microsecond // syscall + doorbell + completion per frame
)

// suite is the rows, in snapshot order; seed picks the bitmap fixtures'
// content.
func suite(seed int64) []row {
	kernel := func(n int) *blockdev.MemDisk { return kernelImage(n, 20000) }
	rows := []row{
		// A kernel-build image under a guest that writes while it is
		// migrated, and guests rewriting a word, a generation or every byte
		// of hot pages.
		measured("MigrateLive/rewrite", blocks*blockdev.BlockSize, liveMigrate),
		memDeltaRow("MemDelta/word-touch", 64, touchWord),
		memDeltaRow("MemDelta/word-touch-per-page", 1, touchWord),
		memDeltaRow("MemDelta/page-rewrite", 64, nil),
		memDeltaRow("MemDelta/page-scramble", 64, scramble),

		// Loopback TCP: the zero-copy hot path against the raw socket floor.
		// The kernel image's zero extents travel as headers; the dense image
		// has none, so its literal path moves every byte the floor copies.
		tcpRow("MigrateTCP/cold", kernel, core.Config{MaxExtentBlocks: 64, Readahead: 4}),
		tcpRow("MigrateTCP/dense", denseImage, core.Config{MaxExtentBlocks: 64, Readahead: 4}),
		tcpRow("MigrateTCP/striped4", kernel, core.Config{Streams: 4, MaxExtentBlocks: 64, Workers: 4}),
		tcpRow("MigrateTCP/compressed", kernel, core.Config{MaxExtentBlocks: 64, CompressLevel: 1, Workers: 4}),
		tcpRow("MigrateTCP/per-block", kernel, core.Config{MaxExtentBlocks: 1}),
		{"MigrateTCP/cp-baseline", tcpCpBaseline, nil},

		// The WAN return trip, literal and delta-encoded.
		deltaRow("MigrateWAN/literal-back", false, true),
		deltaRow("MigrateWAN/delta-back", true, true),
		deltaRow("MigrateWAN/coldsig-back", true, false),

		// A template clone to a destination that holds it, literally, cold, and
		// thrice; and a clone whose every written block is distinct, where no
		// pass repeats content.
		dedupRow("MigrateDedup/warm", templates, true, true, 1),
		dedupRow("MigrateDedup/literal", templates, false, false, 1),
		dedupRow("MigrateDedup/cold", templates, true, false, 1),
		dedupRow("MigrateDedup/third", templates, true, true, 3),
		dedupRow("MigrateDedup/distinct", blocks*3/4, true, true, 1),
		measured("MigrateSwarm/cold-dest", blocks*blockdev.BlockSize, swarmMigrate),

		// The one bitmap encoding (WIRE.md §4) on the paper's disk: an idle
		// guest's freeze set, the web server's 13 440-block divergence, and a
		// half-set bitmap that must take the dense path at its cost.
		bitmapRow("BitmapMarshal/paper-empty", func() *bitmap.Bitmap { return bitmap.New(paperBlocks) }),
		bitmapRow("BitmapMarshal/paper-web", func() *bitmap.Bitmap {
			return workload.WriteSet(workload.New(workload.Web, paperBlocks, seed), paperBlocks, 13440)
		}),
		bitmapRow("BitmapMarshal/paper-half", func() *bitmap.Bitmap {
			bm, rng := bitmap.New(paperBlocks), rand.New(rand.NewSource(seed))
			for i := 0; i < paperBlocks; i++ {
				if rng.Int63()&1 == 1 {
					bm.Set(i)
				}
			}
			return bm
		}),

		scanRow("SnapshotScan/live-contended", false),
		scanRow("SnapshotScan/snapshot", true),
	}
	// Devices that take time, served a block or an extent a request, read and
	// written on one lane or four.
	for _, kind := range []string{"file", "slow"} {
		for _, hide := range []bool{true, false} {
			for _, workers := range []int{1, 4} {
				rows = append(rows, devRow(kind, hide, workers))
			}
		}
	}
	return rows
}

// engineCounts is `bbench -exp counts`: every suite row's counting pass, one
// line a row, each count an integer or a numerator/denominator pair of them.
// The rows run one after another: the TCP rows read process-wide transport
// counters as deltas.
func engineCounts(w io.Writer, seed int64, _ int) {
	fmt.Fprint(w, `Exact engine counts, one counting pass per bbench -json row (n/d: numerator/denominator):
  wire=wire/logical bytes  writes=socket writes/data frames  pool=capacity handed/bytes asked (compressing: bench-gated)
  calls=device requests/blocks owed  read=source blocks read/owed  freeze=bytes/frames sent while the guest is frozen
  skipped=units pre-copy left to a later pass  mem=memory wire bytes  deltas=pages sent as deltas  refused=patches refused
  sig=MsgDeltaSig bytes both ways/rewritten blocks  probes=source flushes/HASH_ADVERT and MsgDeltaSig frames
  refs=blocks by reference  hashes, src-hashes=SHA-256 calls of the index, of the adverts  swarm=blocks the peer served
  encoded, resident=bitmap wire bytes, bytes held  cow, evictions, hits=one scan's CoW copies, evictions, hits/reads
`)
	for _, r := range suite(seed) {
		if r.count == nil {
			continue
		}
		line, err := r.count()
		if err != nil {
			line = "error: " + err.Error()
		}
		fmt.Fprintf(w, "%-36s %s\n", r.name, line)
	}
}

// runner is what a fixture asks of whoever runs it: *testing.B in a row's
// timed body, untimed in its counting pass.
type runner interface {
	StopTimer()
	StartTimer()
	Cleanup(func())
}

// untimed runs a counting pass: there is no clock to stop, and done runs
// the cleanups, last first.
type untimed []func()

func (*untimed) StopTimer()         {}
func (*untimed) StartTimer()        {}
func (u *untimed) Cleanup(f func()) { *u = append(*u, f) }

func (u *untimed) done() {
	for i := len(*u) - 1; i >= 0; i-- {
		(*u)[i]()
	}
}

// fixture builds a row's state for r and returns op, the operation the row
// times, and counts, which renders what op's meters booked.
type fixture func(r runner) (op func() error, counts func() string, err error)

// measured is the row of build: its timed body runs op b.N times over bytes
// per op, and its counting pass runs op once and renders its counts.
func measured(name string, bytes int64, build fixture) row {
	return row{name, func(b *testing.B) {
		op, _, err := build(b)
		if err != nil {
			b.Fatal(err)
		}
		loop(b, bytes, op)
	}, func() (string, error) {
		var u untimed
		defer u.done()
		op, counts, err := build(&u)
		if err == nil {
			err = op()
		}
		if err != nil {
			return "", err
		}
		return counts(), nil
	}}
}

// loop times op b.N times, failing b on its first error; bytes is what one
// op moves.
func loop(b *testing.B, bytes int64, op func() error) {
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// kernelImage builds a MemDisk carrying a deterministic kernel-build write
// footprint: the generator's first writes traces applied once.
func kernelImage(n, writes int) *blockdev.MemDisk {
	disk := blockdev.NewMemDisk(n, blockdev.BlockSize)
	gen := workload.New(workload.Kernel, n, 1)
	buf := make([]byte, blockdev.BlockSize)
	for i := 0; i < writes; i++ {
		a := gen.Next()
		if a.Op != blockdev.Write {
			continue
		}
		for k := a.Block; k < a.Block+a.Count && k < n; k++ {
			workload.FillBlock(buf, k, 1)
			disk.WriteBlock(k, buf)
		}
	}
	return disk
}

// denseImage builds a MemDisk with every block written: no extent of it is
// all zero.
func denseImage(n int) *blockdev.MemDisk {
	disk := blockdev.NewMemDisk(n, blockdev.BlockSize)
	buf := make([]byte, blockdev.BlockSize)
	for k := 0; k < n; k++ {
		workload.FillBlock(buf, k, 1)
		disk.WriteBlock(k, buf)
	}
	return disk
}

// cloneImage builds a template-provisioned clone: three quarters of the
// disk cycle `distinct` template payloads every clone shares, the last
// quarter was never written.
func cloneImage(distinct int) *blockdev.MemDisk {
	disk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < blocks*3/4; n++ {
		workload.FillBlock(buf, n%distinct, 11)
		disk.WriteBlock(n, buf)
	}
	return disk
}

// link is how the runner joins a migration's endpoints: loopback TCP, or
// in-process pipes whose sending sides transport.NewWAN models with a
// per-frame stall and a rate each way (0 is unlimited). Either way the ends
// are a striped bundle as wide as the source Config asks, one stream by
// default.
type link struct {
	tcp      bool
	stall    time.Duration
	up, down int64 // bytes/s source → destination, and back
}

var (
	loopback = link{tcp: true}
	gbe      = link{stall: frameStall, up: 125e6, down: 125e6} // modelled GbE
	wan      = link{stall: frameStall, up: 100e6, down: 400e6} // asymmetric WAN: patches up, signatures down
)

// connect opens the link's two ends over streams streams.
func (ln link) connect(streams int) (src, dst transport.Conn, err error) {
	if ln.tcp {
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		defer l.Close()
		accepted := make(chan error, 1)
		go func() {
			var err error
			dst, err = transport.AcceptStriped(l, nil)
			accepted <- err
		}()
		src, err = transport.DialStriped(l.Addr().String(), streams, nil)
		if err != nil {
			l.Close() // the accept gives up
		}
		err = errors.Join(err, <-accepted)
		return src, dst, err
	}
	a, b := make([]transport.Conn, streams), make([]transport.Conn, streams)
	for i := range a {
		pa, pb := transport.NewPipe(256)
		a[i], b[i] = transport.NewWAN(pa, ln.stall, ln.up), transport.NewWAN(pb, ln.stall, ln.down)
	}
	return transport.NewStriped(a), transport.NewStriped(b), nil
}

// world is one migration's two hosts: newWorld runs a guest with pages of
// memory over src, and its destination shell over dst.
type world struct {
	guest    *vm.VM
	src, dst core.Host
}

func newWorld(src, dst blockdev.Device, pages int) world {
	guest := vm.New("g", 1, pages, 256)
	return world{guest,
		core.Host{VM: guest, Backend: blkback.NewBackend(src, 1)},
		core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(dst, 1)}}
}

// migrate is the suite's one endpoint-pair runner. It links w's hosts over
// ln — wrap, when set, decorates the two ends the engine sees — and runs
// MigrateSource (IM from initial, when set) against MigrateDest, each on its
// own goroutine. Whatever the outcome it closes the link; it returns both
// errors joined, and otherwise both reports.
func (w world) migrate(ln link, srcCfg, dstCfg core.Config, initial *bitmap.Bitmap,
	wrap func(src, dst transport.Conn) (transport.Conn, transport.Conn)) (src, dst *metrics.Report, err error) {
	cs, cd, err := ln.connect(max(srcCfg.Streams, 1))
	if err != nil {
		return nil, nil, err
	}
	if wrap != nil {
		cs, cd = wrap(cs, cd)
	}
	hangUp := sync.OnceFunc(func() { cs.Close(); cd.Close() })
	errs := make(chan error, 2)
	go func() {
		var err error
		src, err = core.MigrateSource(srcCfg, w.src, cs, initial)
		errs <- err
	}()
	go func() {
		res, err := core.MigrateDest(dstCfg, w.dst, cd)
		if err == nil {
			dst = res.Report
		}
		errs <- err
	}()
	for range 2 {
		if e := <-errs; e != nil {
			err = errors.Join(err, e)
			hangUp() // the other end may be blocked on the link
		}
	}
	hangUp()
	if err != nil {
		return nil, nil, err
	}
	return src, dst, nil
}

// devCounts is what a row's counted devices were asked for: requests on
// either side (a block, or an extent), and the blocks the source read.
type devCounts struct{ calls, read atomic.Int64 }

// format renders the counts per block owed: requests no machine moves.
func (c *devCounts) format(owed int) string {
	return fmt.Sprintf("calls=%d/%d read=%d/%d", c.calls.Load(), owed, c.read.Load(), owed)
}

// counted is a device that books every request it serves in counts, the
// blocks it reads too when it is a source. It serves extents, through the
// device it wraps or that device's per-block fallback, and forwards the
// allocation map (all set if the device has none), so the engine asks it
// what it would ask the bare device.
type counted struct {
	blockdev.Device
	counts *devCounts
	source bool
}

func (d counted) ReadBlock(n int, dst []byte) error  { return d.ReadExtent(n, 1, dst) }
func (d counted) WriteBlock(n int, src []byte) error { return d.WriteExtent(n, 1, src) }

func (d counted) ReadExtent(n, count int, dst []byte) error {
	d.counts.calls.Add(1)
	if d.source {
		d.counts.read.Add(int64(count))
	}
	return blockdev.ReadExtent(d.Device, n, count, dst)
}

func (d counted) WriteExtent(n, count int, src []byte) error {
	d.counts.calls.Add(1)
	return blockdev.WriteExtent(d.Device, n, count, src)
}

func (d counted) AllocatedBitmap() *bitmap.Bitmap {
	if a, ok := d.Device.(blockdev.Allocator); ok {
		return a.AllocatedBitmap()
	}
	return bitmap.NewAllSet(d.NumBlocks())
}

// tcpRow runs TPM of the image image builds over loopback TCP under cfg, its
// timed migrations between bare MemDisks. Its counting pass is one migration
// between counted devices, its idle guest's freeze window metered, read
// through the transport's process-wide stream and pool counters too (the
// meters forward staging, so the frames and writes are the bare run's).
func tcpRow(name string, image func(n int) *blockdev.MemDisk, cfg core.Config) row {
	fresh := func() *blockdev.MemDisk { return blockdev.NewMemDisk(tcpBlocks, blockdev.BlockSize) }
	return row{name, func(b *testing.B) {
		srcDisk := image(tcpBlocks)
		pool0 := transport.BufPoolStats()
		loop(b, tcpBlocks*blockdev.BlockSize, func() error {
			_, _, err := newWorld(srcDisk, fresh(), 64).migrate(loopback, cfg, cfg, nil, nil)
			return err
		})
		if cfg.CompressLevel > 0 {
			pool := transport.BufPoolStats()
			b.ReportMetric(float64(pool.Handed-pool0.Handed)/float64(pool.Asked-pool0.Asked), "pool_slack")
		}
	}, func() (string, error) {
		srcDisk := image(tcpBlocks)
		// The counters are deltas of process-wide totals, exact only while no
		// other migration runs: no other -exp printer may run a transport
		// (internal/sim imports only core names).
		var dev devCounts
		fm, metered := new(freezeMeter), cfg
		metered.OnFreeze, metered.OnResume = fm.frozen, func(*blkback.PostCopyGate) { fm.resumed() }
		writes0, frames0 := transport.StreamWrites()
		pool0 := transport.BufPoolStats()
		rep, _, err := newWorld(counted{srcDisk, &dev, true}, counted{fresh(), &dev, false}, 64).migrate(loopback, metered, metered, nil, fm.wrap)
		if err != nil {
			return "", err
		}
		writes, frames := transport.StreamWrites()
		pool1 := transport.BufPoolStats()
		pool := fmt.Sprintf("pool=%d/%d", pool1.Handed-pool0.Handed, pool1.Asked-pool0.Asked)
		if cfg.CompressLevel > 0 {
			// The inflater asks for its guess at each frame's size, the size
			// of the frame before, so what it asks and is handed follows the
			// order the workers' frames arrive in: the timed body reports
			// pool_slack and the bench gate holds it instead.
			pool = "pool=gated"
		}
		return fmt.Sprintf("wire=%d/%d writes=%d/%d %s %s freeze=%d/%d", rep.MigratedBytes, rep.DiskBytes+rep.MemoryBytes,
			writes-writes0, frames-frames0, pool, dev.format(tcpBlocks), fm.bytes, fm.frames), nil
	}}
}

// perBlock hides a device's extent methods: the engine's helpers fall back
// to one request per block.
type perBlock struct{ blockdev.Device }

// devRow runs TPM of a kernel image between two counted devices that take
// time — temp-file FileDisks ("file"), or MemDisks behind blockdev.Slow's
// modelled latency and rate ("slow") — over in-process pipes, at 64-block
// extents and Workers lanes on both ends; perBlock hides the devices' extent
// methods.
func devRow(kind string, hide bool, workers int) row {
	const n = 1024
	name := fmt.Sprintf("MigrateDev/%s-%s/workers-%d", kind, map[bool]string{true: "per-block", false: "extent"}[hide], workers)
	return measured(name, n*blockdev.BlockSize, func(r runner) (func() error, func() string, error) {
		img, counts := kernelImage(n, 2000), new(devCounts)
		dir, err := os.MkdirTemp("", "bbench-dev")
		if err != nil {
			return nil, nil, err
		}
		r.Cleanup(func() { os.RemoveAll(dir) })
		open := func(source bool) (blockdev.Device, error) {
			var dev blockdev.Device = blockdev.NewMemDisk(n, blockdev.BlockSize)
			if kind == "file" {
				fd, err := blockdev.CreateFileDisk(filepath.Join(dir, fmt.Sprint(source)), n, blockdev.BlockSize)
				if err != nil {
					return nil, err
				}
				r.Cleanup(func() { fd.Close() })
				dev = fd
			}
			if source {
				buf := make([]byte, n*blockdev.BlockSize)
				if err := errors.Join(img.ReadExtent(0, n, buf), blockdev.WriteExtent(dev, 0, n, buf)); err != nil {
					return nil, err
				}
			}
			dev = counted{dev, counts, source}
			if kind == "slow" {
				dev = blockdev.Slow{Device: dev}
			}
			if hide {
				dev = perBlock{dev}
			}
			return dev, nil
		}
		src, err := open(true)
		if err != nil {
			return nil, nil, err
		}
		dst, err := open(false)
		cfg := core.Config{MaxExtentBlocks: 64, Workers: workers}
		return func() error {
			_, _, err := newWorld(src, dst, 64).migrate(link{}, cfg, cfg, nil, nil)
			return err
		}, func() string { return counts.format(n) }, err
	})
}

// freezeMeter meters both ends of a link and books what the destination
// receives while the guest is frozen: from the source's OnFreeze (frozen) to
// the destination's OnResume (resumed), summed over a row's migrations.
type freezeMeter struct {
	sent, received    *transport.Meter
	bytesAt, framesAt atomic.Int64 // the source's totals at the freeze, read on the destination's goroutine
	bytes, frames     int64
}

func (f *freezeMeter) wrap(src, dst transport.Conn) (transport.Conn, transport.Conn) {
	f.sent, f.received = transport.NewMeter(src), transport.NewMeter(dst)
	return f.sent, f.received
}

func (f *freezeMeter) frozen() {
	f.bytesAt.Store(f.sent.BytesSent())
	f.framesAt.Store(f.sent.MessagesSent())
}

func (f *freezeMeter) resumed() {
	f.bytes += f.received.BytesReceived() - f.bytesAt.Load()
	f.frames += f.received.MessagesReceived() - f.framesAt.Load()
}

// pace is a migrate wrapper metering both ends and handing the source's to
// paced, which the source then sends through.
func (f *freezeMeter) pace(paced *workload.Paced) func(src, dst transport.Conn) (transport.Conn, transport.Conn) {
	return func(src, dst transport.Conn) (transport.Conn, transport.Conn) {
		src, dst = f.wrap(src, dst)
		paced.Conn = src
		return paced, dst
	}
}

// liveMigrate runs TPM of a kernel-build image over modelled GbE under a
// progress-paced rewriting guest (workload.Paced: per ten units sent, one
// write of the web trace and eight pages of a 256-page hot set). The
// sequential extent path keeps the race in frame order, so its counts repeat
// exactly: the wire bytes, the units pre-copy left out as already dirty
// again, and what the destination receives while the guest is frozen.
func liveMigrate(runner) (func() error, func() string, error) {
	const pages, hotPages = 1024, 256
	srcDisk, buf := kernelImage(blocks, 8000), make([]byte, blockdev.BlockSize)
	var rep *metrics.Report
	fm := new(freezeMeter)
	op := func() (err error) {
		w := newWorld(srcDisk, blockdev.NewMemDisk(blocks, blockdev.BlockSize), pages)
		router := core.NewRouter(w.src.Backend.Submit)
		trace := workload.New(workload.Web, blocks, 1)
		var guestErr error // written by rounds, which Paced runs one at a time
		paced := &workload.Paced{Every: 10, Round: func(r int) {
			a := trace.Next()
			for a.Op != blockdev.Write {
				a = trace.Next()
			}
			workload.FillBlock(buf, a.Block, uint32(r+1))
			guestErr = errors.Join(guestErr, router.Submit(blockdev.Request{Op: blockdev.Write, Block: a.Block, Domain: 1, Data: buf}))
			for k := 0; k < 8; k++ {
				guestErr = errors.Join(guestErr, w.guest.Memory().WritePage((8*r+k)%hotPages, buf))
			}
		}}
		srcCfg := core.Config{MaxExtentBlocks: 64, OnFreeze: func() {
			paced.Stop()
			fm.frozen()
			router.Freeze()
		}}
		dstCfg := core.Config{MaxExtentBlocks: 64, OnResume: func(g *blkback.PostCopyGate) {
			fm.resumed()
			router.ResumeGate(g)
		}}
		rep, _, err = w.migrate(gbe, srcCfg, dstCfg, nil, fm.pace(paced))
		return errors.Join(err, guestErr)
	}
	return op, func() string {
		return fmt.Sprintf("wire=%d/%d skipped=%d freeze=%d/%d", rep.MigratedBytes, rep.DiskBytes+rep.MemoryBytes,
			rep.SkippedBlocks()+rep.SkippedPages(), fm.bytes, fm.frames)
	}, nil
}

// memDeltaRow runs TPM at an extent limit over modelled GbE under a
// progress-paced guest rewriting a 512-page hot set of its 2048 pages, 32
// pages per eight units sent (faster than the link drains them); at limit 1
// its deltas are word-form frames. touch rewrites the k-th page written from
// its first content (touchWord, scramble); without it a page gets
// FillBlock's next generation, one byte in twelve changed: a delta that pays
// in byte form, not a cheaper whole-page rewrite. Its counts repeat exactly
// on the in-order send path: freeze bytes and frames, memory wire bytes,
// delta pages. Its ns/op is not the migration's alone: the guest's page
// writes run on the sending goroutine, in the timed loop.
func memDeltaRow(name string, limit int, touch func(page []byte, k int)) row {
	const blocks, pages, hotPages, perRound = 1024, 2048, 512, 32
	return measured(name, blocks*blockdev.BlockSize+pages*vm.PageSize, func(runner) (func() error, func() string, error) {
		srcDisk := kernelImage(blocks, 2000)
		var rep *metrics.Report
		fm := new(freezeMeter)
		op := func() (err error) {
			w := newWorld(srcDisk, blockdev.NewMemDisk(blocks, blockdev.BlockSize), pages)
			page := make([]byte, vm.PageSize)
			for p := 0; p < pages; p++ {
				workload.FillBlock(page, p, 7)
				if err := w.guest.Memory().WritePage(p, page); err != nil {
					return err
				}
			}
			var guestErr error // written by rounds, which Paced runs one at a time
			paced := &workload.Paced{Every: 8, Round: func(r int) {
				for k := perRound * r; k < perRound*(r+1); k++ {
					p := k % hotPages
					if touch != nil {
						workload.FillBlock(page, p, 7)
						touch(page, k)
					} else {
						workload.FillBlock(page, p, uint32(k)+8)
					}
					guestErr = errors.Join(guestErr, w.guest.Memory().WritePage(p, page))
				}
			}}
			srcCfg := core.Config{MaxExtentBlocks: limit, OnFreeze: func() { paced.Stop(); fm.frozen() }}
			dstCfg := core.Config{MaxExtentBlocks: limit, OnResume: func(*blkback.PostCopyGate) { fm.resumed() }}
			rep, _, err = w.migrate(gbe, srcCfg, dstCfg, nil, fm.pace(paced))
			return errors.Join(err, guestErr)
		}
		return op, func() string {
			var mem int64
			for _, it := range rep.MemIterations {
				mem += it.Bytes
			}
			return fmt.Sprintf("freeze=%d/%d mem=%d deltas=%d", fm.bytes, fm.frames, mem, rep.DeltaPages())
		}, nil
	})
}

// touchWord counts in the page's first word; scramble adds the page's own
// generation to every byte, so each byte differs from the page's last content.
func touchWord(page []byte, k int) { binary.LittleEndian.PutUint64(page, uint64(k)+1) }
func scramble(page []byte, k int) {
	for i := range page {
		page[i] += byte(k/512) + 1
	}
}

// tcpCpBaseline is the wire-speed floor: the TCP rows' image pushed through
// a raw TCP socket in 256 KiB chunks and written block by block on the far
// side, no framing, no engine. MigrateTCP/dense, which moves as many bytes,
// is judged against this row.
func tcpCpBaseline(b *testing.B) {
	const chunk = (256 << 10) / blockdev.BlockSize
	srcDisk := kernelImage(tcpBlocks, 20000)
	b.SetBytes(tcpBlocks * blockdev.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		dstDisk := blockdev.NewMemDisk(tcpBlocks, blockdev.BlockSize)
		done := make(chan error, 1)
		go func() {
			c, err := l.Accept()
			buf := make([]byte, chunk*blockdev.BlockSize)
			for n := 0; err == nil && n < tcpBlocks; n += chunk {
				if _, err = io.ReadFull(c, buf); err == nil {
					for j := 0; j < chunk; j++ {
						dstDisk.WriteBlock(n+j, buf[j*blockdev.BlockSize:])
					}
				}
			}
			if c != nil {
				c.Close()
			}
			done <- err
		}()
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, chunk*blockdev.BlockSize)
		for n := 0; n < tcpBlocks; n += chunk {
			for j := 0; j < chunk; j++ {
				srcDisk.ReadBlock(n+j, buf[j*blockdev.BlockSize:])
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

// deltaRow runs the WAN return trip: IM of a prefix rewritten in each
// block's first 256 bytes toward a destination holding the stale image
// (stale) or nothing. Without delta the rewrites travel literal; with it as
// patches against the stale copies, or, toward the empty disk, behind a
// signature round trip per extent that cannot win: the protocol's floor.
// Its counts: the blocks whose patch was refused, the MsgDeltaSig wire bytes
// both ways per rewritten block and the source's flushes per probe.
func deltaRow(name string, delta, stale bool) row {
	const hot = blocks / 8
	return measured(name, hot*blockdev.BlockSize, func(runner) (func() error, func() string, error) {
		baseline := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		srcDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		buf, head := make([]byte, blockdev.BlockSize), make([]byte, blockdev.BlockSize)
		for n := 0; n < blocks; n++ {
			workload.FillBlock(buf, n, 7)
			baseline.WriteBlock(n, buf)
			if n < hot {
				workload.FillBlock(head, n+blocks, 13)
				copy(buf[:256], head[:256])
			}
			srcDisk.WriteBlock(n, buf)
		}
		cfg := core.Config{MaxExtentBlocks: 16, Delta: delta}
		var rep *metrics.Report
		var src, dst probeMeter
		wrap := src.wrap(&dst)
		op := func() (err error) {
			dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
			for n := 0; stale && n < blocks; n++ {
				baseline.ReadBlock(n, buf)
				dstDisk.WriteBlock(n, buf)
			}
			fresh := bitmap.New(blocks)
			fresh.SetRange(0, hot)
			rep, _, err = newWorld(srcDisk, dstDisk, 64).migrate(wan, cfg, cfg, fresh, wrap)
			return err
		}
		return op, func() string {
			return fmt.Sprintf("refused=%d sig=%d/%d %s", rep.DeltaRefused, src.sig.Load()+dst.sig.Load(), hot, src.format())
		}, nil
	})
}

// probeMeter counts what the end it wraps sends of the content probes: the
// wire bytes of its MsgDeltaSig frames, its HASH_ADVERT and MsgDeltaSig
// frames, and its flushes from the first of those on. The engine flushes
// where it waits on its peer, so on the source flushes per request are
// round trips per extent: 1 or more for a source that waits on every reply.
type probeMeter struct {
	transport.Conn
	sig, requests, flushes atomic.Int64
}

// wrap is a migrate wrapper metering the source end with m, the destination
// end with dst.
func (m *probeMeter) wrap(dst *probeMeter) func(src, dst transport.Conn) (transport.Conn, transport.Conn) {
	return func(s, d transport.Conn) (transport.Conn, transport.Conn) {
		m.Conn, dst.Conn = s, d
		return m, dst
	}
}

func (m *probeMeter) Send(msg transport.Message) error {
	if msg.Type == transport.MsgDeltaSig || msg.Type == transport.MsgHashAdvert {
		m.requests.Add(1)
	}
	if msg.Type == transport.MsgDeltaSig {
		m.sig.Add(int64(msg.FrameSize()))
	}
	return m.Conn.Send(msg)
}

// Stage and Flush forward staging, so the meter changes nothing below it.
func (m *probeMeter) Stage(limit int) bool { return transport.Stage(m.Conn, limit) }

func (m *probeMeter) Flush() error {
	if m.requests.Load() > 0 {
		m.flushes.Add(1)
	}
	return transport.Flush(m.Conn)
}

// format renders the source end's flushes per probe.
func (m *probeMeter) format() string {
	return fmt.Sprintf("probes=%d/%d", m.flushes.Load(), m.requests.Load())
}

// dedupRow runs TPM of a clone of `distinct` template payloads over
// modelled GbE, migrations times a run to fresh disks under one index and
// DedupName: literally (dedup off), to a cold destination (only the
// never-written quarter elides), or — warm — to one whose index knows a
// MemDisk sibling, whose write stamps keep it warm across the run. The index
// is built before every run, off the clock. Its counts: the last
// migration's blocks answered by reference and the source's SHA-256 calls
// for adverts, the SHA-256 calls the destination's index made over the run,
// its warm-up scan included, and the probeMeter's flushes per probe.
func dedupRow(name string, distinct int, on, warm bool, migrations int) row {
	return measured(name, int64(migrations)*blocks*blockdev.BlockSize, func(r runner) (func() error, func() string, error) {
		srcDisk, sibling := cloneImage(distinct), cloneImage(distinct)
		cfg := core.Config{MaxExtentBlocks: 64, Dedup: on}
		var rep *metrics.Report
		var idx *dedup.Index
		var src, dst probeMeter
		op := func() (err error) {
			r.StopTimer()
			idx = dedup.NewIndex(blockdev.BlockSize)
			dstCfg := cfg
			if on {
				dstCfg.DedupIndex, dstCfg.DedupName = idx, "disk/clone"
			}
			if warm {
				err = idx.RegisterSource("disk/sibling", sibling)
				if err == nil {
					_, err = idx.ScanSource("disk/sibling")
				}
			}
			r.StartTimer()
			for i := 0; i < migrations && err == nil; i++ {
				rep, _, err = newWorld(srcDisk, blockdev.NewMemDisk(blocks, blockdev.BlockSize), 64).migrate(gbe, cfg, dstCfg, nil, src.wrap(&dst))
			}
			return err
		}
		return op, func() string {
			return fmt.Sprintf("refs=%d/%d hashes=%d/%d src-hashes=%d/%d %s", rep.DedupBlocks, blocks,
				idx.Stats().Hashes, blocks, rep.DedupHashes, blocks, src.format())
		}, nil
	})
}

// swarmMigrate migrates a clone like the dedup rows toward a cold
// destination while a peer hosting a sibling serves the template content
// over a swarm session on loopback TCP; the peer scans its index once, in
// its first ServeSwarm. Its count is the blocks the peer served.
func swarmMigrate(runner) (func() error, func() string, error) {
	srcDisk, peer := cloneImage(templates), hostd.NewMachine("P")
	if _, err := peer.CreateDomainOn("sibling", cloneImage(templates), 64, workload.Web, 1, false); err != nil {
		return nil, nil, err
	}
	cfg := core.Config{MaxExtentBlocks: 64, Dedup: true}
	var swarm int
	op := func() error {
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		served := make(chan struct{})
		go func() { _ = peer.ServeSwarm(l, nil); close(served) }()
		dstCfg := cfg
		dstCfg.SwarmPeers = []string{l.Addr().String()}
		_, dst, err := newWorld(srcDisk, blockdev.NewMemDisk(blocks, blockdev.BlockSize), 64).migrate(gbe, cfg, dstCfg, nil, nil)
		l.Close()
		<-served // ends when the destination hangs up; a failed serve shows as no swarm blocks
		if err == nil {
			swarm = dst.SwarmBlocks
		}
		return err
	}
	return op, func() string { return fmt.Sprintf("swarm=%d/%d", swarm, blocks) }, nil
}

// bitmapRow prices encoding the bitmap fixture returns; its counts are the
// encoded size and the bytes the bitmap holds in memory (Bitmap.SizeBytes:
// its allocated leaves and directory). The fixture is built once, whatever
// b.N ramp runs it.
func bitmapRow(name string, fixture func() *bitmap.Bitmap) row {
	fixture = sync.OnceValue(fixture)
	return measured(name, 0, func(runner) (func() error, func() string, error) {
		bm, size := fixture(), 0
		op := func() error {
			data, err := bm.MarshalBinary()
			size = len(data)
			return err
		}
		return op, func() string { return fmt.Sprintf("encoded=%d resident=%d", size, bm.SizeBytes()) }, nil
	})
}

// scanRow measures a full-device scan — the shape of the fingerprint and
// dedup passes — over a bcache volume written every eight blocks, reading a
// CoW snapshot when frozen and the mutating live device otherwise. The
// writes come from the scanning goroutine on a fixed stride, so allocs/op
// and the counts — the volume's CoW copies, evictions and hits per read —
// are exact.
func scanRow(name string, frozen bool) row {
	return measured(name, blocks*blockdev.BlockSize, func(runner) (func() error, func() string, error) {
		vol := bcache.New(kernelImage(blocks, 8000), blocks)
		buf, wbuf := make([]byte, blockdev.BlockSize), make([]byte, blockdev.BlockSize)
		for n := 0; n < blocks; n++ { // warm: measure the cache, not the fill
			if err := vol.ReadBlock(n, buf); err != nil {
				return nil, nil, err
			}
		}
		before := vol.Stats()
		op := func() error {
			var view blockdev.Device = vol
			if frozen {
				view = vol.Snapshot()
			}
			for n := 0; n < blocks; n++ {
				if err := view.ReadBlock(n, buf); err != nil {
					return err
				}
				if n%8 == 0 {
					if err := vol.WriteBlock((n*37+13)%blocks, wbuf); err != nil {
						return err
					}
				}
			}
			if s, ok := view.(blockdev.Snapshot); ok {
				s.Release()
			}
			return nil
		}
		return op, func() string {
			after := vol.Stats()
			return fmt.Sprintf("cow=%d evictions=%d hits=%d/%d", after.CowCopies-before.CowCopies, after.Evictions-before.Evictions,
				after.Hits-before.Hits, after.Hits+after.Misses-before.Hits-before.Misses)
		}, nil
	})
}

// runJSON executes the suite's timed rows and writes path.
func runJSON(path string, seed int64) error {
	out := benchFile{Schema: "bbmig-bench/v1.2", GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	for _, row := range suite(seed) {
		r := testing.Benchmark(row.run)
		mbps := 0.0
		if r.NsPerOp() > 0 && r.Bytes > 0 {
			mbps = float64(r.Bytes) / float64(r.NsPerOp()) * 1e9 / 1e6
		}
		out.Benchmarks = append(out.Benchmarks, benchResult{
			Name: row.name, Iterations: r.N, NsPerOp: float64(r.NsPerOp()), MBPerSec: mbps,
			AllocsPerOp: float64(r.AllocsPerOp()), BytesPerOp: float64(r.AllocedBytesPerOp()), PoolSlack: r.Extra["pool_slack"],
		})
		fmt.Printf("%-44s %8d ns/op  %9.1f MB/s  %8d allocs/op  %10d B/op\n", row.name, r.NsPerOp(), mbps, r.AllocsPerOp(), r.AllocedBytesPerOp())
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
