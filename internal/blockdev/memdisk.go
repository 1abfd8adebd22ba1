package blockdev

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bbmig/internal/bitmap"
)

// memDiskShards is the lock-striping width: runs of RunBlocks blocks are
// spread over this many independently locked shards, so the parallel
// migration pipeline's scatter writers and the guest workload don't
// serialize on one mutex, and an extent inside one run takes one lock. 16
// shards keeps per-disk overhead trivial while letting a worker pool scale.
const memDiskShards = 16

// MemDisk is a RAM-backed Device. Blocks are allocated lazily, so a "40 GB"
// MemDisk that is mostly zeros costs memory proportional to its written
// footprint only — this is what lets integration tests and the simulator
// instantiate paper-scale VBDs. Block state is sharded by run, so concurrent
// readers and writers of different runs proceed in parallel. It implements
// ExtentDevice: ReadBlock and WriteBlock are its one-block extents, and
// Stamped, one stamp per shard.
type MemDisk struct {
	shards    [memDiskShards]memDiskShard
	blockSize int
	numBlocks int
}

type memDiskShard struct {
	mu    sync.RWMutex
	runs  map[int]*memRun // by run number: only runs with a block ever written
	slab  []byte          // spare storage first-writes carve block slices from
	stamp uint64          // the last write's, from writeStamps; 0 if none
}

// writeStamps issues every MemDisk write's stamp: one counter per process,
// so no two writes, on one disk or two, share one.
var writeStamps atomic.Uint64

// memRun holds one run's blocks; a nil entry was never written.
type memRun [RunBlocks][]byte

// memDiskSlabBlocks bounds how many blocks' worth of storage a shard
// allocates at once. Carving first-write block storage from slabs keeps a
// bulk restore (a migration landing on a cold destination disk) at one
// allocation per slab instead of one per block, without giving up the
// lazy, sparse footprint: slack is bounded by one partial slab per shard.
const memDiskSlabBlocks = 64

// NewMemDisk returns a zero-filled MemDisk with numBlocks blocks of
// blockSize bytes.
func NewMemDisk(numBlocks, blockSize int) *MemDisk {
	if numBlocks < 0 || blockSize <= 0 {
		panic(fmt.Sprintf("blockdev: bad geometry %dx%d", numBlocks, blockSize))
	}
	m := &MemDisk{
		blockSize: blockSize,
		numBlocks: numBlocks,
	}
	for i := range m.shards {
		m.shards[i].runs = make(map[int]*memRun)
	}
	return m
}

// shard is the shard holding block n's run.
func (m *MemDisk) shard(n int) *memDiskShard { return &m.shards[n/RunBlocks%memDiskShards] }

// BlockSize implements Device.
func (m *MemDisk) BlockSize() int { return m.blockSize }

// NumBlocks implements Device.
func (m *MemDisk) NumBlocks() int { return m.numBlocks }

// ReadBlock implements Device: the one-block ReadExtent.
func (m *MemDisk) ReadBlock(n int, dst []byte) error { return m.ReadExtent(n, 1, dst) }

// WriteBlock implements Device: the one-block WriteExtent.
func (m *MemDisk) WriteBlock(n int, src []byte) error { return m.WriteExtent(n, 1, src) }

// ReadExtent implements ExtentDevice, one read lock per run. Never-written
// blocks read as zeros.
func (m *MemDisk) ReadExtent(n, count int, dst []byte) error {
	_, err := m.readExtent(n, count, dst)
	return err
}

// ReadStamped implements Stamped: the block and its shard's stamp.
func (m *MemDisk) ReadStamped(n int, dst []byte) (uint64, error) { return m.readExtent(n, 1, dst) }

// readExtent is ReadExtent, returning the stamp of the last run's shard,
// read under the lock its copy took.
func (m *MemDisk) readExtent(n, count int, dst []byte) (stamp uint64, err error) {
	if err := CheckExtent(m, n, count, len(dst)); err != nil {
		return 0, err
	}
	bs := m.blockSize
	err = EachRun(n, count, func(lo, hi int) error {
		s := m.shard(lo)
		s.mu.RLock()
		stamp = s.stamp
		run := s.runs[lo/RunBlocks]
		for b := lo; b < hi; b++ {
			out := dst[(b-n)*bs : (b-n+1)*bs]
			if run != nil && run[b%RunBlocks] != nil {
				copy(out, run[b%RunBlocks])
			} else {
				clear(out)
			}
		}
		s.mu.RUnlock()
		return nil
	})
	return stamp, err
}

// WriteExtent implements ExtentDevice, one write lock per run.
func (m *MemDisk) WriteExtent(n, count int, src []byte) error {
	if err := CheckExtent(m, n, count, len(src)); err != nil {
		return err
	}
	bs := m.blockSize
	return EachRun(n, count, func(lo, hi int) error {
		s := m.shard(lo)
		s.mu.Lock()
		s.stamp = writeStamps.Add(1)
		run := s.runs[lo/RunBlocks]
		if run == nil {
			run = new(memRun)
			s.runs[lo/RunBlocks] = run
		}
		for b := lo; b < hi; b++ {
			blk := run[b%RunBlocks]
			if blk == nil {
				if len(s.slab) < bs {
					// Size the slab to the disk: tiny disks get single-block
					// slabs so an 8-block test fixture doesn't allocate 64
					// blocks' slack.
					blocks := min((m.numBlocks+memDiskShards-1)/memDiskShards, memDiskSlabBlocks)
					s.slab = make([]byte, max(blocks, 1)*bs)
				}
				blk = s.slab[:bs:bs]
				s.slab = s.slab[bs:]
				run[b%RunBlocks] = blk
			}
			copy(blk, src[(b-n)*bs:])
		}
		s.mu.Unlock()
		return nil
	})
}

// WrittenBlocks returns how many blocks have ever been written (the
// allocation footprint).
func (m *MemDisk) WrittenBlocks() int {
	total := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for _, run := range s.runs {
			for _, blk := range run {
				if blk != nil {
					total++
				}
			}
		}
		s.mu.RUnlock()
	}
	return total
}

// AllocatedBitmap implements Allocator: one set bit per block that has ever
// been written. Blocks outside the bitmap read as zeros, so a migration may
// skip them when the destination device is freshly zeroed.
func (m *MemDisk) AllocatedBitmap() *bitmap.Bitmap {
	bm := bitmap.New(m.numBlocks)
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for r, run := range s.runs {
			for k, blk := range run {
				if blk != nil {
					bm.Set(r*RunBlocks + k)
				}
			}
		}
		s.mu.RUnlock()
	}
	return bm
}
