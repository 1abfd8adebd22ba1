package main

import (
	"fmt"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/blockdev/bcache"
	"bbmig/internal/core"
	"bbmig/internal/dedup"
	"bbmig/internal/workload"
)

// Disk and link shapes shared by the workloads. BENCHMARK.json names the
// workloads; their parameters are frozen here, next to the code that uses
// them, and described in README.md.
const (
	smallBlocks = 16384      // 64 MiB of 4 KiB blocks
	liveBlocks  = 8192       // live-rewrite's 32 MiB disk: a migration every ~0.7 s of modelled link
	paperBlocks = 10_001_920 // the paper's 39 070 MB VBD (Table II)
	paperDirty  = 13_440     // Table II web-server row: 52.5 MB diverged during the dwell

	frameStall = 40e3 // ns a frame occupies the modelled link before serialisation (syscall + doorbell)
	gbe        = 125e6
)

// link describes the path between the two engines: loopback TCP, optionally
// under transport.NewWAN in each direction. Zero rates mean bare loopback.
type link struct {
	up, down int64 // bytes/second source→destination and back
}

func (l link) shaped() bool { return l.up > 0 }

// spec is the frozen description of one workload.
type spec struct {
	name  string
	why   string
	cfg   core.Config
	pages int // guest RAM in 4 KiB pages
	link  link
	live  bool // a guest runs against the migrating disk
	build func(seed int64) (*fixture, error)
}

// fixture is what set-up leaves behind for the timed migrations.
type fixture struct {
	blocks int
	// source returns the device the source backend migrates from. Idle
	// workloads hand out one shared disk (a quiescent migration never
	// writes its source); live ones build a fresh copy per migration.
	source func() blockdev.Device
	// dest returns a fresh destination disk and the destination-only
	// Config fields that go with it.
	dest func() (*blockdev.MemDisk, core.Config, error)
	// initial is the divergent set of an incremental migration; nil
	// migrates the whole disk.
	initial *bitmap.Bitmap
	// template is the image the destination must equal where the guest
	// wrote nothing (for idle workloads: everywhere).
	template *blockdev.MemDisk
	// logical is the bytes owed: disk (or divergent blocks) plus RAM.
	logical int64
}

var specs = []*spec{
	{
		name:  "cold-full",
		why:   "full TPM of an idle guest over one TCP connection: the literal path (read, frame, socket, scatter-write) does all the work, bitmap and codecs none",
		cfg:   core.Config{MaxExtentBlocks: 64, Readahead: 4},
		pages: 1024,
		build: buildKernelImage,
	},
	{
		name:  "striped",
		why:   "same image over 2 striped streams with source workers and destination scatter pool: guards fan-out and fences, tracks the striped-slower-than-cold anomaly",
		cfg:   core.Config{Streams: 2, MaxExtentBlocks: 64, Workers: 2},
		pages: 1024,
		build: buildKernelImage,
	},
	{
		name:  "compressed",
		why:   "same image through flate level 1: CPU-bound in transport.Compressed, the only workload where flate time and allocations dominate",
		cfg:   core.Config{MaxExtentBlocks: 64, CompressLevel: 1, Workers: 2},
		pages: 1024,
		build: buildKernelImage,
	},
	{
		name:  "im-back",
		why:   "incremental migration at paper scale (39 070 MB disk, 13 440 divergent blocks) on the default one-block-per-frame protocol: per-message cost and the 1.25 MB bitmap dominate",
		cfg:   core.Config{},
		pages: 1024,
		build: buildPaperIM,
	},
	{
		name:  "live-rewrite",
		why:   "TPM under a progress-paced rewriting guest on a bcache volume over modelled GbE: the only one that iterates pre-copy, freezes a non-empty bitmap, pushes and pulls in post-copy",
		cfg:   core.Config{MaxExtentBlocks: 64, Readahead: 4},
		pages: 2048,
		link:  link{up: gbe, down: gbe},
		live:  true,
		build: buildLiveImage,
	},
	{
		name:  "clone-dedup",
		why:   "template-clone image to a destination whose fingerprint index knows a sibling, over modelled GbE: bytes collapse, time is fingerprinting, index lookups and advert round trips",
		cfg:   core.Config{MaxExtentBlocks: 64, Dedup: true},
		pages: 1024,
		link:  link{up: gbe, down: gbe},
		build: buildCloneImage,
	},
	{
		name:  "wan-delta-back",
		why:   "incremental return of 2 048 blocks rewritten in their first 256 B to a host holding the stale image, delta-encoded over an asymmetric WAN: link-bound, isolates the delta codec's cost",
		cfg:   core.Config{MaxExtentBlocks: 16, Delta: true},
		pages: 1024,
		link:  link{up: 100e6, down: 400e6},
		build: buildDeltaImage,
	},
}

func findSpec(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// blankDisk returns a zeroed disk whose blocks in `over` (nil: all of them)
// already have storage behind them. MemDisk allocates a block's storage on
// its first write; left to the migration, that allocation — fresh pages from
// the kernel or recycled ones from the collector, depending on what the
// previous migration left behind — lands inside the timed window and was the
// largest source of run-to-run noise. A destination prepared like this is a
// preallocated image file: the migration scatter-writes into it.
func blankDisk(blocks int, over *bitmap.Bitmap) *blockdev.MemDisk {
	disk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	zero := make([]byte, blockdev.BlockSize)
	if over == nil {
		for n := 0; n < blocks; n++ {
			_ = disk.WriteBlock(n, zero) // in range by the loop bound
		}
		return disk
	}
	over.ForEachSet(func(n int) bool {
		_ = disk.WriteBlock(n, zero) // the bitmap is the disk's size
		return true
	})
	return disk
}

func freshDest(blocks int, over *bitmap.Bitmap) func() (*blockdev.MemDisk, core.Config, error) {
	return func() (*blockdev.MemDisk, core.Config, error) {
		return blankDisk(blocks, over), core.Config{}, nil
	}
}

func shared(d blockdev.Device) func() blockdev.Device {
	return func() blockdev.Device { return d }
}

// kernelBuildDisk applies the kernel-build generator's write trace once, so
// block contents and allocation shape match the workload the paper
// benchmarks (the same image bench_test.go's MigrateTCP rows use).
func kernelBuildDisk(blocks int, seed int64) *blockdev.MemDisk {
	disk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	gen := workload.New(workload.Kernel, blocks, seed)
	buf := make([]byte, blockdev.BlockSize)
	for i := 0; i < 20000; i++ {
		a := gen.Next()
		if a.Op != blockdev.Write {
			continue
		}
		for n := a.Block; n < a.Block+a.Count && n < blocks; n++ {
			workload.FillBlock(buf, n, uint32(seed))
			_ = disk.WriteBlock(n, buf) // in range by the loop bound
		}
	}
	return disk
}

func buildKernelImage(seed int64) (*fixture, error) {
	disk := kernelBuildDisk(smallBlocks, seed)
	return &fixture{
		blocks: smallBlocks, source: shared(disk), dest: freshDest(smallBlocks, nil), template: disk,
		logical: blockdev.Capacity(disk),
	}, nil
}

// buildPaperIM lays the web server's dwell-time writes on a sparse
// paper-scale disk; the destination is a fresh sparse disk, standing for the
// host that still holds the (all-zero) base image.
func buildPaperIM(seed int64) (*fixture, error) {
	disk := blockdev.NewMemDisk(paperBlocks, blockdev.BlockSize)
	gen := workload.New(workload.Web, paperBlocks, seed)
	diverged := bitmap.New(paperBlocks)
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < paperDirty; {
		a := gen.Next()
		if a.Op != blockdev.Write {
			continue
		}
		if !diverged.Test(a.Block) {
			diverged.Set(a.Block)
			n++
		}
		workload.FillBlock(buf, a.Block, uint32(seed))
		if err := disk.WriteBlock(a.Block, buf); err != nil {
			return nil, err
		}
	}
	return &fixture{
		blocks: paperBlocks, source: shared(disk), dest: freshDest(paperBlocks, diverged), template: disk,
		initial: diverged, logical: int64(paperDirty) * blockdev.BlockSize,
	}, nil
}

// copyDisk returns a new MemDisk with src's allocated blocks.
func copyDisk(src *blockdev.MemDisk) (*blockdev.MemDisk, error) {
	dst := blockdev.NewMemDisk(src.NumBlocks(), src.BlockSize())
	buf := make([]byte, src.BlockSize())
	var fail error
	src.AllocatedBitmap().ForEachSet(func(n int) bool {
		if fail = src.ReadBlock(n, buf); fail == nil {
			fail = dst.WriteBlock(n, buf)
		}
		return fail == nil
	})
	return dst, fail
}

// liveCacheBlocks sizes the live source's block cache below the guest's
// write working set (about 900 distinct blocks a migration), so that CoW
// snapshots, eviction and write-back all run. Snapshot reads do not fill the
// cache, so a cache a quarter of the disk's size — the first choice — never
// evicted anything.
const liveCacheBlocks = liveBlocks / 16

// buildLiveImage: every migration gets its own copy of the kernel-build
// image behind the block cache.
func buildLiveImage(seed int64) (*fixture, error) {
	template := kernelBuildDisk(liveBlocks, seed)
	fx := &fixture{
		blocks: liveBlocks, dest: freshDest(liveBlocks, nil), template: template,
		logical: blockdev.Capacity(template),
	}
	fx.source = func() blockdev.Device {
		disk, err := copyDisk(template)
		if err != nil {
			panic(fmt.Sprintf("copy of an in-memory disk failed: %v", err)) // MemDisk I/O in range cannot fail
		}
		return bcache.New(disk, liveCacheBlocks)
	}
	return fx, nil
}

// templateCloneDisk is a template-provisioned clone: three quarters of the
// disk cycles `distinct` template payloads, the last quarter was never
// written.
func templateCloneDisk(blocks, distinct int, seed int64) *blockdev.MemDisk {
	disk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < blocks*3/4; n++ {
		workload.FillBlock(buf, n%distinct, uint32(seed))
		_ = disk.WriteBlock(n, buf) // in range by the loop bound
	}
	return disk
}

// buildCloneImage: the destination's index is warmed from a sibling clone
// before every migration. One index shared across migrations would not stay
// warm: each migration's observations re-home the template's fingerprints
// onto that migration's destination disk, which the next migration replaces
// with an empty one (see README.md, findings).
func buildCloneImage(seed int64) (*fixture, error) {
	const distinct = 512
	disk := templateCloneDisk(smallBlocks, distinct, seed)
	sibling := templateCloneDisk(smallBlocks, distinct, seed)
	fx := &fixture{
		blocks: smallBlocks, source: shared(disk), template: disk,
		logical: blockdev.Capacity(disk),
	}
	fx.dest = func() (*blockdev.MemDisk, core.Config, error) {
		idx := dedup.NewIndex(blockdev.BlockSize)
		if err := idx.RegisterSource("disk/sibling", sibling); err != nil {
			return nil, core.Config{}, err
		}
		if _, err := idx.ScanSource("disk/sibling"); err != nil {
			return nil, core.Config{}, err
		}
		return blankDisk(smallBlocks, nil), core.Config{DedupIndex: idx, DedupName: "disk/clone"}, nil
	}
	return fx, nil
}

// buildDeltaImage: the source image is the baseline with the first 256 B of
// its first 2 048 blocks rewritten; every destination starts as a copy of
// the baseline (the existing MigrateWAN/delta-back shape).
func buildDeltaImage(seed int64) (*fixture, error) {
	const hot, rewriteLen = 2048, 256
	baseline := blockdev.NewMemDisk(smallBlocks, blockdev.BlockSize)
	disk := blockdev.NewMemDisk(smallBlocks, blockdev.BlockSize)
	buf := make([]byte, blockdev.BlockSize)
	head := make([]byte, blockdev.BlockSize)
	for n := 0; n < smallBlocks; n++ {
		workload.FillBlock(buf, n, uint32(seed))
		_ = baseline.WriteBlock(n, buf) // in range by the loop bound
		if n < hot {
			workload.FillBlock(head, n+smallBlocks, uint32(seed)+1)
			copy(buf[:rewriteLen], head[:rewriteLen])
		}
		_ = disk.WriteBlock(n, buf)
	}
	diverged := bitmap.New(smallBlocks)
	diverged.SetRange(0, hot)
	return &fixture{
		blocks: smallBlocks, source: shared(disk), template: disk, initial: diverged,
		dest: func() (*blockdev.MemDisk, core.Config, error) {
			d, err := copyDisk(baseline)
			return d, core.Config{}, err
		},
		logical: int64(hot) * blockdev.BlockSize,
	}, nil
}
