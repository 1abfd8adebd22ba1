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
	frameStall  = 40 * time.Microsecond // syscall + doorbell + completion per frame
)

// suite is the timed rows, in snapshot order; seed picks the bitmap
// fixtures' content.
func suite(seed int64) []row {
	modeledRow := func(cfg core.Config, adaptive bool) func(*testing.B) {
		return func(b *testing.B) { kernelMigrate(b, modelled, blocks, 8000, cfg, adaptive) }
	}
	tcpRow := func(cfg core.Config) func(*testing.B) {
		return func(b *testing.B) { kernelMigrate(b, loopback, tcpBlocks, 20000, cfg, false) }
	}
	return []row{
		// The modelled link: the policy trajectory, and four striped streams.
		{"MigrateModeledLink/default-per-block", modeledRow(core.Config{MaxExtentBlocks: 1}, false)},
		{"MigrateModeledLink/fixed-64-extents", modeledRow(core.Config{MaxExtentBlocks: 64}, false)},
		{"MigrateModeledLink/adaptive-policy", modeledRow(core.Config{MaxExtentBlocks: 1}, true)},
		{"MigrateModeledLink/striped4", modeledRow(core.Config{Streams: 4, MaxExtentBlocks: 64, Workers: 4}, false)},

		// The same image under a guest that writes while it is migrated, and
		// guests rewriting words of their hot pages, or whole pages.
		{"MigrateLive/rewrite", liveMigrate},
		{"MemDelta/word-touch", func(b *testing.B) { memDeltaMigrate(b, true) }},
		{"MemDelta/page-rewrite", func(b *testing.B) { memDeltaMigrate(b, false) }},

		// Loopback TCP: the zero-copy hot path against the raw socket floor.
		{"MigrateTCP/cold", tcpRow(core.Config{MaxExtentBlocks: 64, Readahead: 4})},
		{"MigrateTCP/striped4", tcpRow(core.Config{Streams: 4, MaxExtentBlocks: 64, Workers: 4})},
		{"MigrateTCP/compressed", tcpRow(core.Config{MaxExtentBlocks: 64, CompressLevel: 1, Workers: 4})},
		{"MigrateTCP/per-block", tcpRow(core.Config{MaxExtentBlocks: 1})},
		{"MigrateTCP/cp-baseline", tcpCpBaseline},

		// The WAN return trip, literal and delta-encoded.
		{"MigrateWAN/literal-back", func(b *testing.B) { deltaMigrate(b, false, true) }},
		{"MigrateWAN/delta-back", func(b *testing.B) { deltaMigrate(b, true, true) }},
		{"MigrateWAN/coldsig-back", func(b *testing.B) { deltaMigrate(b, true, false) }},

		// A template clone, by reference, literally, and to cold destinations.
		{"MigrateDedup/warm", func(b *testing.B) { dedupMigrate(b, true, true) }},
		{"MigrateDedup/literal", func(b *testing.B) { dedupMigrate(b, false, false) }},
		{"MigrateDedup/cold", func(b *testing.B) { dedupMigrate(b, true, false) }},
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

// cloneImage builds a template-provisioned clone: three quarters of the
// disk cycle 512 template payloads every clone shares, the last quarter was
// never written.
func cloneImage() *blockdev.MemDisk {
	disk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < blocks*3/4; n++ {
		workload.FillBlock(buf, n%512, 11)
		disk.WriteBlock(n, buf)
	}
	return disk
}

// link is how the runner joins a migration's endpoints: loopback TCP, or
// in-process pipes whose sending sides transport.NewWAN models with a
// per-frame stall and a rate each way (0 is unlimited). A Config asking for
// more than one stream gets a striped bundle either way.
type link struct {
	tcp      bool
	stall    time.Duration
	up, down int64 // bytes/s source → destination, and back
}

var (
	loopback = link{tcp: true}
	modelled = link{stall: frameStall}                         // the per-frame flush cost loopback hides
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
			if streams > 1 {
				dst, err = transport.AcceptStriped(l, nil)
			} else {
				dst, err = transport.Accept(l)
			}
			accepted <- err
		}()
		if streams > 1 {
			src, err = transport.DialStriped(l.Addr().String(), streams, nil)
		} else {
			src, err = transport.Dial(l.Addr().String())
		}
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
	if streams == 1 {
		return a[0], b[0], nil
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

// kernelMigrate runs TPM of an n-block kernel-build image over ln under cfg.
// adaptive gives each run's source a fresh AdaptivePolicy: policies are
// stateful and per-migration, and the receiver applies whatever arrives.
func kernelMigrate(b *testing.B, ln link, n, writes int, cfg core.Config, adaptive bool) {
	srcDisk := kernelImage(n, writes)
	b.SetBytes(int64(n) * blockdev.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srcCfg := cfg
		if adaptive {
			srcCfg.Policy = &core.AdaptivePolicy{}
		}
		newWorld(srcDisk, blockdev.NewMemDisk(n, blockdev.BlockSize), 64).migrate(b, ln, srcCfg, cfg, nil, nil)
	}
}

// liveMigrate runs TPM of a kernel-build image over modelled GbE under a
// progress-paced rewriting guest (workload.Paced: per ten units sent, one
// write of the web trace and eight pages of a 256-page hot set). The
// sequential extent path keeps the race in frame order, so wire-bytes/op and
// skipped/op (units pre-copy left out as already dirty again) repeat exactly.
func liveMigrate(b *testing.B) {
	const pages, hotPages = 1024, 256
	srcDisk := kernelImage(blocks, 8000)
	buf := make([]byte, blockdev.BlockSize)
	var wire, skipped int64
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
		cfg := core.Config{MaxExtentBlocks: 64, OnResume: router.ResumeGate}
		srcCfg := cfg
		srcCfg.OnFreeze = func() {
			paced.Stop()
			router.Freeze()
		}
		rep, _ := w.migrate(b, gbe, srcCfg, cfg, nil, func(src, dst transport.Conn) (transport.Conn, transport.Conn) {
			paced.Conn = src
			return paced, dst
		})
		wire += rep.MigratedBytes
		skipped += int64(rep.SkippedBlocks() + rep.SkippedPages())
	}
	b.ReportMetric(float64(wire)/float64(b.N), "wire-bytes/op")
	b.ReportMetric(float64(skipped)/float64(b.N), "skipped/op")
}

// memDeltaMigrate runs TPM over modelled GbE under a progress-paced guest
// that rewrites a 512-page hot set of its 2048 pages — 32 pages per eight
// units sent, faster than the link drains them — either one word at a time
// (wordTouch) or as whole pages. Its three counts repeat exactly on the
// in-order send path: the bytes the destination receives while the guest is
// frozen, the memory's wire bytes, and the pages that travelled as deltas.
func memDeltaMigrate(b *testing.B, wordTouch bool) {
	const blocks, pages, hotPages, perRound = 1024, 2048, 512, 32
	srcDisk := kernelImage(blocks, 2000)
	var freeze, memBytes, deltaPages int64
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
				if wordTouch {
					workload.FillBlock(page, p, 7)
					binary.LittleEndian.PutUint64(page, uint64(k)+1)
				} else {
					workload.FillBlock(page, p, uint32(k)+8)
				}
				if err := w.guest.Memory().WritePage(p, page); err != nil {
					b.Error(err)
				}
			}
		}}
		var sent, received *transport.Meter
		var sentAtFreeze atomic.Int64 // set on the source's goroutine, read on the destination's
		srcCfg := core.Config{MaxExtentBlocks: 64, OnFreeze: func() {
			paced.Stop()
			sentAtFreeze.Store(sent.BytesSent())
		}}
		dstCfg := core.Config{MaxExtentBlocks: 64, OnResume: func(*blkback.PostCopyGate) {
			freeze += received.BytesReceived() - sentAtFreeze.Load()
		}}
		rep, _ := w.migrate(b, gbe, srcCfg, dstCfg, nil, func(src, dst transport.Conn) (transport.Conn, transport.Conn) {
			sent, received = transport.NewMeter(src), transport.NewMeter(dst)
			paced.Conn = sent
			return paced, received
		})
		for _, it := range rep.MemIterations {
			memBytes += it.Bytes
		}
		deltaPages += int64(rep.DeltaPages())
	}
	b.ReportMetric(float64(freeze)/float64(b.N), "freeze_bytes")
	b.ReportMetric(float64(memBytes)/float64(b.N), "mem_bytes")
	b.ReportMetric(float64(deltaPages)/float64(b.N), "delta_pages")
}

// tcpCpBaseline is the wire-speed floor: the TCP rows' image pushed through
// a raw TCP socket in 256 KiB chunks and written block by block on the far
// side, no framing, no engine. MigrateTCP/cold is judged against this row.
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
func deltaMigrate(b *testing.B, delta, stale bool) {
	hot := blocks / 8
	baseline := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	srcDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	buf := make([]byte, blockdev.BlockSize)
	head := make([]byte, blockdev.BlockSize)
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
	b.SetBytes(int64(hot) * blockdev.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dstDisk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		for n := 0; stale && n < blocks; n++ {
			baseline.ReadBlock(n, buf)
			dstDisk.WriteBlock(n, buf)
		}
		fresh := bitmap.New(blocks)
		fresh.SetRange(0, hot)
		newWorld(srcDisk, dstDisk, 64).migrate(b, wan, cfg, cfg, fresh, nil)
	}
}

// dedupMigrate runs TPM of a template-provisioned clone over modelled GbE:
// literally (dedup off), to a cold destination (only the never-written
// quarter elides), or — warm — to one whose index knows a sibling, so every
// block travels by reference. The warm index is built before every run, off
// the clock: one shared across runs goes cold after its first migration, and
// this row measures the codec, not that finding.
func dedupMigrate(b *testing.B, on, warm bool) {
	srcDisk, sibling := cloneImage(), cloneImage()
	cfg := core.Config{MaxExtentBlocks: 64, Dedup: on}
	var refs int
	b.SetBytes(blocks * blockdev.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dstCfg := cfg
		if warm {
			b.StopTimer()
			idx := dedup.NewIndex(blockdev.BlockSize)
			if err := idx.RegisterSource("disk/sibling", sibling); err != nil {
				b.Fatal(err)
			}
			if _, err := idx.ScanSource("disk/sibling"); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			dstCfg.DedupIndex, dstCfg.DedupName = idx, "disk/clone"
		}
		rep, _ := newWorld(srcDisk, blockdev.NewMemDisk(blocks, blockdev.BlockSize), 64).migrate(b, gbe, cfg, dstCfg, nil, nil)
		refs = rep.DedupBlocks
	}
	b.ReportMetric(float64(refs)/blocks, "ref_share")
}

// swarmMigrate is the dedup rows' clone and link toward a cold destination
// while a peer hosting a sibling serves the template content over a swarm
// session on loopback TCP; the peer scans its index once, in its first
// ServeSwarm.
func swarmMigrate(b *testing.B) {
	srcDisk := cloneImage()
	peer := hostd.NewMachine("P")
	if _, err := peer.CreateDomainOn("sibling", cloneImage(), 64, workload.Web, 1, false); err != nil {
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
// encoded size. The fixture is built once, whatever b.N ramp runs it.
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
	out := benchFile{
		Schema:    "bbmig-bench/v1.2",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
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
	results, _ := sim.AdaptiveSweep(seed)
	for i, name := range []string{"default", "fixed64", "adaptive"} {
		r := results[i].Report
		add("SimAdaptiveSweep/"+name, map[string]float64{
			"total_s":     r.TotalTime.Seconds(),
			"precopy_s":   r.PreCopyTime.Seconds(),
			"migrated_mb": r.MigratedMB(),
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
