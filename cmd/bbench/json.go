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
	"bbmig/internal/sim"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// This file is the machine-readable benchmark harness: `bbench -json FILE`
// runs the suite — real-engine migrations over modelled links and loopback
// TCP, the bitmap codec, the snapshot block layer, and the simulator's
// headline numbers — and writes a BENCH_*.json snapshot, so the perf
// trajectory is tracked from change to change. Every timed row is defined
// once, in suite; BenchmarkSuite runs the same table under `go test`.

// benchResult is one benchmark's outcome.
type benchResult struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations,omitempty"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	MBPerSec    float64            `json:"mb_per_s,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
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

// row is one timed row of the suite: its name in BENCH_*.json and the body
// testing.Benchmark drives.
type row struct {
	name string
	run  func(*testing.B)
}

const (
	blocks      = 4096                  // 16 MiB image keeps the suite fast enough for CI
	tcpBlocks   = 16384                 // 64 MiB over TCP, so the steady state, not the handshake, dominates
	paperBlocks = 10_001_920            // the paper's 39 070 MB disk
	templates   = 512                   // the payloads a template clone cycles
	frameStall  = 40 * time.Microsecond // syscall + doorbell + completion per frame
)

// suite is the timed rows, in snapshot order; seed picks the bitmap
// fixtures' content.
func suite(seed int64) []row {
	tcpRow := func(cfg core.Config) func(*testing.B) {
		return func(b *testing.B) { imageMigrate(b, kernelImage(tcpBlocks, 20000), cfg) }
	}
	rows := []row{
		// A kernel-build image under a guest that writes while it is
		// migrated, and guests rewriting a word, a generation or every byte
		// of hot pages.
		{"MigrateLive/rewrite", liveMigrate},
		{"MemDelta/word-touch", func(b *testing.B) { memDeltaMigrate(b, 64, touchWord) }},
		{"MemDelta/word-touch-per-page", func(b *testing.B) { memDeltaMigrate(b, 1, touchWord) }},
		{"MemDelta/page-rewrite", func(b *testing.B) { memDeltaMigrate(b, 64, nil) }},
		{"MemDelta/page-scramble", func(b *testing.B) { memDeltaMigrate(b, 64, scramble) }},

		// Loopback TCP: the zero-copy hot path against the raw socket floor.
		// The kernel image's zero extents travel as headers; the dense image
		// has none, so its literal path moves every byte the floor copies.
		{"MigrateTCP/cold", tcpRow(core.Config{MaxExtentBlocks: 64, Readahead: 4})},
		{"MigrateTCP/dense", func(b *testing.B) {
			imageMigrate(b, denseImage(tcpBlocks), core.Config{MaxExtentBlocks: 64, Readahead: 4})
		}},
		{"MigrateTCP/striped4", tcpRow(core.Config{Streams: 4, MaxExtentBlocks: 64, Workers: 4})},
		{"MigrateTCP/compressed", tcpRow(core.Config{MaxExtentBlocks: 64, CompressLevel: 1, Workers: 4})},
		{"MigrateTCP/per-block", tcpRow(core.Config{MaxExtentBlocks: 1})},
		{"MigrateTCP/cp-baseline", tcpCpBaseline},

		// The WAN return trip, literal and delta-encoded.
		{"MigrateWAN/literal-back", func(b *testing.B) { deltaMigrate(b, false, true) }},
		{"MigrateWAN/delta-back", func(b *testing.B) { deltaMigrate(b, true, true) }},
		{"MigrateWAN/coldsig-back", func(b *testing.B) { deltaMigrate(b, true, false) }},

		// A template clone to a destination that holds it, literally, cold, and
		// thrice; and a clone whose every written block is distinct, where no
		// pass repeats content.
		{"MigrateDedup/warm", func(b *testing.B) { dedupMigrate(b, templates, true, true, 1) }},
		{"MigrateDedup/literal", func(b *testing.B) { dedupMigrate(b, templates, false, false, 1) }},
		{"MigrateDedup/cold", func(b *testing.B) { dedupMigrate(b, templates, true, false, 1) }},
		{"MigrateDedup/third", func(b *testing.B) { dedupMigrate(b, templates, true, true, 3) }},
		{"MigrateDedup/distinct", func(b *testing.B) { dedupMigrate(b, blocks*3/4, true, true, 1) }},
		{"MigrateSwarm/cold-dest", swarmMigrate},

		// The one bitmap encoding (WIRE.md §4) on the paper's disk: an idle
		// guest's freeze set, the web server's 13 440-block divergence, and a
		// half-set bitmap that must take the dense path at its cost.
		{"BitmapMarshal/paper-empty", marshalBitmap(func() *bitmap.Bitmap { return bitmap.New(paperBlocks) })},
		{"BitmapMarshal/paper-web", marshalBitmap(func() *bitmap.Bitmap {
			return workload.WriteSet(workload.New(workload.Web, paperBlocks, seed), paperBlocks, 13440)
		})},
		{"BitmapMarshal/paper-half", marshalBitmap(func() *bitmap.Bitmap {
			bm, rng := bitmap.New(paperBlocks), rand.New(rand.NewSource(seed))
			for i := 0; i < paperBlocks; i++ {
				if rng.Int63()&1 == 1 {
					bm.Set(i)
				}
			}
			return bm
		})},

		{"SnapshotScan/live-contended", func(b *testing.B) { snapshotScan(b, false) }},
		{"SnapshotScan/snapshot", func(b *testing.B) { snapshotScan(b, true) }},
	}
	// Devices that take time, served a block or an extent a request, read and
	// written on one lane or four.
	for _, kind := range []string{"file", "slow"} {
		for _, hide := range []bool{true, false} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("MigrateDev/%s-%s/workers-%d", kind, map[bool]string{true: "per-block", false: "extent"}[hide], workers)
				rows = append(rows, row{name, func(b *testing.B) { devMigrate(b, kind, hide, workers) }})
			}
		}
	}
	return rows
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
// own goroutine. Whatever the outcome it closes the link; it fails b with
// both errors joined, and otherwise hands back both reports.
func (w world) migrate(b *testing.B, ln link, srcCfg, dstCfg core.Config, initial *bitmap.Bitmap,
	wrap func(src, dst transport.Conn) (transport.Conn, transport.Conn)) (src, dst *metrics.Report) {
	cs, cd, err := ln.connect(max(srcCfg.Streams, 1))
	if err != nil {
		b.Fatal(err)
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
		b.Fatal(err)
	}
	return src, dst
}

// devCounts is what a row's counted devices were asked for: requests on
// either side (a block, or an extent), and the blocks the source read.
type devCounts struct{ calls, read atomic.Int64 }

// report books the counts as dev_calls_per_block, the requests both devices
// served per block owed, and read_share, the source's blocks read per block
// owed: counts no machine moves.
func (c *devCounts) report(b *testing.B, owed int) {
	b.ReportMetric(float64(c.calls.Load())/float64(owed), "dev_calls_per_block")
	b.ReportMetric(float64(c.read.Load())/float64(owed), "read_share")
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

// imageMigrate runs TPM of srcDisk over loopback TCP under cfg and reports
// wire_share: the wire bytes per logical byte (disk and memory), a count no
// machine moves, writes_per_frame: the writes both ends' streams issued per
// data frame sent, the syscalls staging saves, and pool_slack: the capacity
// the buffer pool handed out per byte asked of it. The timed migrations run
// bare devices; one more, untimed, reports devCounts.report and the idle
// guest's freeze_bytes (a freezeMeter's link does not stage).
func imageMigrate(b *testing.B, srcDisk *blockdev.MemDisk, cfg core.Config) {
	n := srcDisk.NumBlocks()
	var share float64
	writes0, frames0 := transport.StreamWrites()
	pool0 := transport.BufPoolStats()
	b.SetBytes(int64(n) * blockdev.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, _ := newWorld(srcDisk, blockdev.NewMemDisk(n, blockdev.BlockSize), 64).migrate(b, loopback, cfg, cfg, nil, nil)
		share = float64(rep.MigratedBytes) / float64(rep.DiskBytes+rep.MemoryBytes)
	}
	b.StopTimer()
	b.ReportMetric(share, "wire_share")
	writes, frames := transport.StreamWrites()
	b.ReportMetric(float64(writes-writes0)/float64(frames-frames0), "writes_per_frame")
	pool := transport.BufPoolStats()
	b.ReportMetric(float64(pool.Handed-pool0.Handed)/float64(pool.Asked-pool0.Asked), "pool_slack")
	counts, fm := devCounts{}, freezeMeter{}
	cfg.OnFreeze, cfg.OnResume = fm.frozen, func(*blkback.PostCopyGate) { fm.resumed() }
	newWorld(counted{srcDisk, &counts, true}, counted{blockdev.NewMemDisk(n, blockdev.BlockSize), &counts, false}, 64).migrate(b, loopback, cfg, cfg, nil, fm.wrap)
	counts.report(b, n)
	b.ReportMetric(float64(fm.bytes), "freeze_bytes")
}

// perBlock hides a device's extent methods: the engine's helpers fall back
// to one request per block.
type perBlock struct{ blockdev.Device }

// devMigrate runs TPM of a kernel image between two devices that take time —
// temp-file FileDisks ("file"), or MemDisks behind blockdev.Slow's modelled
// latency and rate ("slow") — over in-process pipes, at 64-block extents
// and Workers lanes on both ends; perBlock hides the devices' extent methods.
// It reports the device counts (devCounts.report).
func devMigrate(b *testing.B, kind string, hide bool, workers int) {
	const n = 1024
	img := kernelImage(n, 2000)
	var counts devCounts
	open := func(source bool) blockdev.Device {
		var dev blockdev.Device = blockdev.NewMemDisk(n, blockdev.BlockSize)
		if kind == "file" {
			fd, err := blockdev.CreateFileDisk(filepath.Join(b.TempDir(), "img"), n, blockdev.BlockSize)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { fd.Close() })
			dev = fd
		}
		if source {
			buf := make([]byte, n*blockdev.BlockSize)
			if err := errors.Join(img.ReadExtent(0, n, buf), blockdev.WriteExtent(dev, 0, n, buf)); err != nil {
				b.Fatal(err)
			}
		}
		dev = counted{dev, &counts, source}
		if kind == "slow" {
			dev = blockdev.Slow{Device: dev}
		}
		if hide {
			dev = perBlock{dev}
		}
		return dev
	}
	src, dst := open(true), open(false)
	cfg := core.Config{MaxExtentBlocks: 64, Workers: workers}
	b.SetBytes(n * blockdev.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newWorld(src, dst, 64).migrate(b, link{}, cfg, cfg, nil, nil)
	}
	counts.report(b, n*b.N)
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

// liveMigrate runs TPM of a kernel-build image over modelled GbE under a
// progress-paced rewriting guest (workload.Paced: per ten units sent, one
// write of the web trace and eight pages of a 256-page hot set). The
// sequential extent path keeps the race in frame order, so wire-bytes/op,
// skipped/op (units pre-copy left out as already dirty again) and
// freeze_frames (frames the destination receives while the guest is frozen)
// repeat exactly.
func liveMigrate(b *testing.B) {
	const pages, hotPages = 1024, 256
	srcDisk := kernelImage(blocks, 8000)
	buf := make([]byte, blockdev.BlockSize)
	var wire, skipped int64
	var fm freezeMeter
	b.SetBytes(blocks * blockdev.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := newWorld(srcDisk, blockdev.NewMemDisk(blocks, blockdev.BlockSize), pages)
		router := core.NewRouter(w.src.Backend.Submit)
		trace := workload.New(workload.Web, blocks, 1)
		paced := &workload.Paced{Every: 10, Round: func(r int) {
			a := trace.Next()
			for a.Op != blockdev.Write {
				a = trace.Next()
			}
			workload.FillBlock(buf, a.Block, uint32(r+1))
			if err := router.Submit(blockdev.Request{Op: blockdev.Write, Block: a.Block, Domain: 1, Data: buf}); err != nil {
				b.Error(err)
			}
			for k := 0; k < 8; k++ {
				if err := w.guest.Memory().WritePage((8*r+k)%hotPages, buf); err != nil {
					b.Error(err)
				}
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
		rep, _ := w.migrate(b, gbe, srcCfg, dstCfg, nil, func(src, dst transport.Conn) (transport.Conn, transport.Conn) {
			src, dst = fm.wrap(src, dst)
			paced.Conn = src
			return paced, dst
		})
		wire += rep.MigratedBytes
		skipped += int64(rep.SkippedBlocks() + rep.SkippedPages())
	}
	b.ReportMetric(float64(wire)/float64(b.N), "wire-bytes/op")
	b.ReportMetric(float64(skipped)/float64(b.N), "skipped/op")
	b.ReportMetric(float64(fm.frames)/float64(b.N), "freeze_frames")
}

// memDeltaMigrate runs TPM at an extent limit over modelled GbE under a
// progress-paced guest rewriting a 512-page hot set of its 2048 pages, 32
// pages per eight units sent (faster than the link drains them); at limit 1
// its deltas are word-form frames. touch rewrites the k-th page written from
// its first content (touchWord, scramble); without it a page gets
// FillBlock's next generation, one byte in twelve changed: a delta that pays
// in byte form, not a cheaper whole-page rewrite. The four gated counts
// repeat exactly on the in-order send path: freeze bytes and frames, memory
// wire bytes, delta pages. ns_per_op is not gated, nor the migration's alone:
// the guest's page writes run on the sending goroutine, in the timed loop.
func memDeltaMigrate(b *testing.B, limit int, touch func(page []byte, k int)) {
	const blocks, pages, hotPages, perRound = 1024, 2048, 512, 32
	srcDisk := kernelImage(blocks, 2000)
	var memBytes, deltaPages int64
	var fm freezeMeter
	b.SetBytes(blocks*blockdev.BlockSize + pages*vm.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := newWorld(srcDisk, blockdev.NewMemDisk(blocks, blockdev.BlockSize), pages)
		page := make([]byte, vm.PageSize)
		for p := 0; p < pages; p++ {
			workload.FillBlock(page, p, 7)
			if err := w.guest.Memory().WritePage(p, page); err != nil {
				b.Fatal(err)
			}
		}
		paced := &workload.Paced{Every: 8, Round: func(r int) {
			for k := perRound * r; k < perRound*(r+1); k++ {
				p := k % hotPages
				if touch != nil {
					workload.FillBlock(page, p, 7)
					touch(page, k)
				} else {
					workload.FillBlock(page, p, uint32(k)+8)
				}
				if err := w.guest.Memory().WritePage(p, page); err != nil {
					b.Error(err)
				}
			}
		}}
		srcCfg := core.Config{MaxExtentBlocks: limit, OnFreeze: func() { paced.Stop(); fm.frozen() }}
		dstCfg := core.Config{MaxExtentBlocks: limit, OnResume: func(*blkback.PostCopyGate) { fm.resumed() }}
		rep, _ := w.migrate(b, gbe, srcCfg, dstCfg, nil, func(src, dst transport.Conn) (transport.Conn, transport.Conn) {
			src, dst = fm.wrap(src, dst)
			paced.Conn = src
			return paced, dst
		})
		for _, it := range rep.MemIterations {
			memBytes += it.Bytes
		}
		deltaPages += int64(rep.DeltaPages())
	}
	b.ReportMetric(float64(fm.bytes)/float64(b.N), "freeze_bytes")
	b.ReportMetric(float64(fm.frames)/float64(b.N), "freeze_frames")
	b.ReportMetric(float64(memBytes)/float64(b.N), "mem_bytes")
	b.ReportMetric(float64(deltaPages)/float64(b.N), "delta_pages")
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

// deltaMigrate runs the WAN return trip: IM of a prefix rewritten in each
// block's first 256 bytes toward a destination holding the stale image
// (stale) or nothing. Without delta the rewrites travel literal; with it as
// patches against the stale copies, or, toward the empty disk, behind a
// signature round trip per extent that cannot win: the protocol's floor.
// One more migration, untimed, reports sig_bytes_per_block, the MsgDeltaSig
// wire bytes both ways per rewritten block, and round_trips_per_extent (see
// probeMeter): counts no machine moves.
func deltaMigrate(b *testing.B, delta, stale bool) {
	hot, refused := blocks/8, 0
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
	run := func(wrap func(src, dst transport.Conn) (transport.Conn, transport.Conn)) {
		dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		for n := 0; stale && n < blocks; n++ {
			baseline.ReadBlock(n, buf)
			dstDisk.WriteBlock(n, buf)
		}
		fresh := bitmap.New(blocks)
		fresh.SetRange(0, hot)
		rep, _ := newWorld(srcDisk, dstDisk, 64).migrate(b, wan, cfg, cfg, fresh, wrap)
		refused += rep.DeltaRefused
	}
	b.SetBytes(int64(hot) * blockdev.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(nil)
	}
	b.StopTimer()
	b.ReportMetric(float64(refused)/float64(b.N), "refused_blocks")
	var src, dst probeMeter
	run(src.wrap(&dst))
	b.ReportMetric(float64(src.sig.Load()+dst.sig.Load())/float64(hot), "sig_bytes_per_block")
	src.roundTrips(b)
}

// probeMeter counts what the end it wraps sends of the content probes: the
// wire bytes of its MsgDeltaSig frames, its HASH_ADVERT and MsgDeltaSig
// frames, and its flushes from the first of those on. The engine flushes
// where it waits on its peer, so on the source flushes per request are
// round_trips_per_extent: 1 or more for a source that waits on every reply.
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

// roundTrips reports the source end's round_trips_per_extent.
func (m *probeMeter) roundTrips(b *testing.B) {
	b.ReportMetric(float64(m.flushes.Load())/float64(max(m.requests.Load(), 1)), "round_trips_per_extent")
}

// dedupMigrate runs TPM of a clone of `distinct` template payloads over
// modelled GbE, migrations times a run to fresh disks under one index and
// DedupName: literally (dedup off), to a cold destination (only the
// never-written quarter elides), or — warm — to one whose index knows a
// MemDisk sibling, whose write stamps keep it warm across the run. The index
// is built before every run, off the clock; ref_share and
// src_hashes_per_block, the source's SHA-256 calls for adverts per block, are
// the run's last migration's. hashes_per_block is the SHA-256 calls the
// destination's index makes per block over the run, its warm-up scan
// included, and round_trips_per_extent is probeMeter's: counts no machine
// moves.
func dedupMigrate(b *testing.B, distinct int, on, warm bool, migrations int) {
	srcDisk, sibling := cloneImage(distinct), cloneImage(distinct)
	cfg := core.Config{MaxExtentBlocks: 64, Dedup: on}
	var refs, srcHashes int
	var hashes int64
	var src, dst probeMeter
	b.SetBytes(int64(migrations) * blocks * blockdev.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		idx, dstCfg := dedup.NewIndex(blockdev.BlockSize), cfg
		if on {
			dstCfg.DedupIndex, dstCfg.DedupName = idx, "disk/clone"
		}
		if warm {
			if err := idx.RegisterSource("disk/sibling", sibling); err != nil {
				b.Fatal(err)
			}
			if _, err := idx.ScanSource("disk/sibling"); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for range migrations {
			rep, _ := newWorld(srcDisk, blockdev.NewMemDisk(blocks, blockdev.BlockSize), 64).migrate(b, gbe, cfg, dstCfg, nil, src.wrap(&dst))
			refs, srcHashes = rep.DedupBlocks, rep.DedupHashes
		}
		hashes = idx.Stats().Hashes
	}
	b.ReportMetric(float64(refs)/blocks, "ref_share")
	b.ReportMetric(float64(hashes)/blocks, "hashes_per_block")
	b.ReportMetric(float64(srcHashes)/blocks, "src_hashes_per_block")
	src.roundTrips(b)
}

// swarmMigrate is the dedup rows' clone and link toward a cold destination
// while a peer hosting a sibling serves the template content over a swarm
// session on loopback TCP; the peer scans its index once, in its first
// ServeSwarm.
func swarmMigrate(b *testing.B) {
	srcDisk := cloneImage(templates)
	peer := hostd.NewMachine("P")
	if _, err := peer.CreateDomainOn("sibling", cloneImage(templates), 64, workload.Web, 1, false); err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{MaxExtentBlocks: 64, Dedup: true}
	var swarm int
	b.SetBytes(blocks * blockdev.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		served := make(chan struct{})
		go func() { _ = peer.ServeSwarm(l, nil); close(served) }()
		dstCfg := cfg
		dstCfg.SwarmPeers = []string{l.Addr().String()}
		_, dst := newWorld(srcDisk, blockdev.NewMemDisk(blocks, blockdev.BlockSize), 64).migrate(b, gbe, cfg, dstCfg, nil, nil)
		l.Close()
		<-served // ends when the destination hangs up; a failed serve fails the swarm check below
		swarm = dst.SwarmBlocks
	}
	if swarm == 0 {
		b.Fatal("no blocks arrived from the swarm peer")
	}
	b.ReportMetric(float64(swarm)/blocks, "swarm_share")
}

// marshalBitmap prices encoding the bitmap fixture returns, reporting the
// encoded size and the bytes the bitmap holds in memory (Bitmap.SizeBytes:
// its allocated leaves and directory). The fixture is built once, whatever
// b.N ramp runs it.
func marshalBitmap(fixture func() *bitmap.Bitmap) func(*testing.B) {
	fixture = sync.OnceValue(fixture)
	return func(b *testing.B) {
		bm := fixture()
		b.ReportAllocs()
		b.ResetTimer()
		var size int
		for i := 0; i < b.N; i++ {
			data, err := bm.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			size = len(data)
		}
		b.ReportMetric(float64(size), "bytes")
		b.ReportMetric(float64(bm.SizeBytes()), "resident_bytes")
	}
}

// snapshotScan measures a full-device scan — the shape of the fingerprint
// and dedup passes — over a bcache volume written every eight blocks, reading
// a CoW snapshot when frozen and the mutating live device otherwise. The
// writes come from the scanning goroutine on a fixed stride, so allocs/op is
// exact. The volume's CoW copies and evictions are reported per scan, with
// the scans' hit rate.
func snapshotScan(b *testing.B, frozen bool) {
	vol := bcache.New(kernelImage(blocks, 8000), blocks)
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < blocks; n++ { // warm: measure the cache, not the fill
		if err := vol.ReadBlock(n, buf); err != nil {
			b.Fatal(err)
		}
	}
	wbuf := make([]byte, blockdev.BlockSize)
	before := vol.Stats()
	b.SetBytes(blocks * blockdev.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var view blockdev.Device = vol
		if frozen {
			view = vol.Snapshot()
		}
		for n := 0; n < blocks; n++ {
			if err := view.ReadBlock(n, buf); err != nil {
				b.Fatal(err)
			}
			if n%8 == 0 {
				if err := vol.WriteBlock((n*37+13)%blocks, wbuf); err != nil {
					b.Fatal(err)
				}
			}
		}
		if s, ok := view.(blockdev.Snapshot); ok {
			s.Release()
		}
	}
	b.StopTimer()
	after := vol.Stats()
	b.ReportMetric(float64(after.CowCopies-before.CowCopies)/float64(b.N), "cow_copies")
	b.ReportMetric(float64(after.Evictions-before.Evictions)/float64(b.N), "evictions")
	b.ReportMetric(bcache.Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}.HitRate(), "hit_rate")
}

// runJSON executes the suite and writes path.
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
			AllocsPerOp: float64(r.AllocsPerOp()), BytesPerOp: float64(r.AllocedBytesPerOp()), Metrics: r.Extra,
		})
		fmt.Printf("%-44s %8d ns/op  %9.1f MB/s  %8d allocs/op  %10d B/op\n", row.name, r.NsPerOp(), mbps, r.AllocsPerOp(), r.AllocedBytesPerOp())
	}

	// Paper-scale simulator headlines: deterministic, so stored as metrics.
	add := func(name string, m map[string]float64) {
		out.Benchmarks = append(out.Benchmarks, benchResult{Name: name, Metrics: m})
	}
	for _, kind := range sim.TableIWorkloads() {
		p := sim.Defaults(kind)
		p.Seed, p.DwellAfter = seed, time.Minute
		r := sim.RunTPM(p).Report
		add("SimTableI/"+kind.String(), map[string]float64{
			"total_s":     r.TotalTime.Seconds(),
			"downtime_ms": float64(r.Downtime.Milliseconds()),
			"migrated_mb": r.MigratedMB(),
			"disk_iters":  float64(r.DiskIterationCount()),
		})
	}
	swarmRows, _ := sim.SwarmSweep(seed)
	for i, name := range []string{"literal", "single-source", "swarm"} {
		add("SimSwarmSweep/"+name, map[string]float64{
			"makespan_s":    swarmRows[i].Makespan.Seconds(),
			"fleet_wire_gb": swarmRows[i].FleetWireGB,
			"speedup":       swarmRows[i].Speedup,
		})
	}
	wanRows, _ := sim.WANSweep(seed)
	wanSlug := map[string]string{"literal": "literal", "dedup only": "dedup-only", "dedup + delta": "dedup-delta"}
	for _, r := range wanRows {
		if r.HotPct == 35 { // snapshot the heaviest swept divergence only
			add("SimWANSweep/"+wanSlug[r.Label], map[string]float64{
				"return_wire_mb": r.ReturnWireMB,
				"reduction":      r.Reduction,
				"trip_s":         r.TripTime.Seconds(),
			})
		}
	}
	// Fleet autopilot headline at the CI shape: small enough to stay
	// second-scale, large enough that the diurnal speedup is stable.
	fleetRows, _ := sim.FleetSweep(seed, 40, 2000)
	for _, r := range fleetRows {
		add("SimFleetSweep/"+r.Shape+"-"+r.Policy, map[string]float64{
			"makespan_s":       r.Makespan.Seconds(),
			"mean_downtime_ms": float64(r.MeanDowntime.Milliseconds()),
			"high_starts":      float64(r.HighStarts),
			"retrans_gb":       float64(r.RetransBlocks) * blockdev.BlockSize / 1e9,
			"speedup":          r.Speedup,
		})
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
