// Package bcache implements the reference-counted block cache and
// copy-on-write snapshot layer behind the blockdev.Volume API.
//
// A Cache wraps any blockdev.Device and serves reads from an in-memory,
// LRU-evicted block set while buffering writes (dirty write-back), so
// concurrent out-migrations of one domain share cached reads instead of
// hammering the backing store. Every access copies under the shard lock; no
// caller ever holds a reference into cache storage. Snapshot freezes a
// consistent point-in-time view of the volume: the first guest write to a
// snapshotted block copies the old contents aside, so migrations, dedup
// scans and pre-sync read frozen data while the guest keeps writing.
// Storage is carved from per-shard slabs and recycled through per-shard free
// lists, the same pooled-slab discipline MemDisk uses, so steady-state churn
// is allocation-free.
package bcache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
)

// shardCount is the lock-striping width, matching MemDisk: blocks are sharded
// by blockdev.RunBlocks-aligned run, so guest writes, migration snapshot
// reads, and background scans touching different runs proceed in parallel,
// and an extent inside one run takes one shard lock.
const shardCount = 16

// DefaultMaxBlocks is the cache capacity used when New is given 0: 4096
// blocks, 16 MiB of 4 KiB blocks per volume.
const DefaultMaxBlocks = 4096

// slabBlocks bounds how many blocks' worth of storage a shard allocates at
// once; evicted block buffers return to a per-shard free list first.
const slabBlocks = 64

// Cache is a reference-counted, snapshot-capable block cache over a backing
// Device. It implements blockdev.Volume (and blockdev.Allocator,
// conservatively, so index scans of a wrapped device skip unwritten blocks).
// All methods are safe for concurrent use.
type Cache struct {
	backing   blockdev.Device
	blockSize int
	numBlocks int
	shardCap  int // per-shard block capacity before LRU eviction

	shards [shardCount]shard

	snapMu sync.Mutex
	snaps  map[*snapshot]struct{}

	statMu sync.Mutex
	stats  Stats

	released atomic.Bool
}

// shard holds one lock stripe of cached blocks plus its slab and free list.
type shard struct {
	mu     sync.Mutex
	blocks map[int]*block
	// lruHead/lruTail chain the resident blocks, most recently used first.
	lruHead, lruTail *block
	slab             []byte
	free             [][]byte
}

// block is one cached block: its storage and dirty flag.
type block struct {
	n          int
	data       []byte
	dirty      bool
	prev, next *block
}

// Stats is a point-in-time snapshot of cache counters, exposed for tests
// and the cache hit-rate benchmarks.
type Stats struct {
	// Hits counts reads (live or snapshot) served from cached blocks.
	Hits int64
	// Misses counts reads that had to touch the backing device.
	Misses int64
	// Evictions counts blocks dropped by LRU pressure.
	Evictions int64
	// Writebacks counts dirty blocks flushed to the backing device.
	Writebacks int64
	// CowCopies counts blocks materialized aside on first write while
	// snapshots were outstanding; a copy shared by several snapshots
	// counts once.
	CowCopies int64
	// Snapshots is the number of currently outstanding snapshots.
	Snapshots int
	// Cached is the number of blocks currently resident in the cache.
	Cached int
	// Dirty is the number of resident blocks awaiting write-back.
	Dirty int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any reads.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// New wraps backing in a Cache holding at most maxBlocks blocks
// (0 selects DefaultMaxBlocks).
func New(backing blockdev.Device, maxBlocks int) *Cache {
	if maxBlocks <= 0 {
		maxBlocks = DefaultMaxBlocks
	}
	shardCap := (maxBlocks + shardCount - 1) / shardCount
	if shardCap < 1 {
		shardCap = 1
	}
	c := &Cache{
		backing:   backing,
		blockSize: backing.BlockSize(),
		numBlocks: backing.NumBlocks(),
		shardCap:  shardCap,
		snaps:     make(map[*snapshot]struct{}),
	}
	for i := range c.shards {
		c.shards[i].blocks = make(map[int]*block)
	}
	return c
}

// shard is the shard holding block n's run.
func (c *Cache) shard(n int) *shard { return &c.shards[n/blockdev.RunBlocks%shardCount] }

// BlockSize implements blockdev.Device.
func (c *Cache) BlockSize() int { return c.blockSize }

// NumBlocks implements blockdev.Device.
func (c *Cache) NumBlocks() int { return c.numBlocks }

// ErrReleased is returned for I/O against a released Cache.
var ErrReleased = fmt.Errorf("bcache: volume released")

// checkIO validates an extent and buffer for one I/O.
func (c *Cache) checkIO(n, count int, buf []byte) error {
	if c.released.Load() {
		return ErrReleased
	}
	return blockdev.CheckExtent(c, n, count, len(buf))
}

// alloc carves one block's storage from the shard free list or slab.
// Caller holds s.mu.
func (c *Cache) alloc(s *shard) []byte {
	if k := len(s.free); k > 0 {
		buf := s.free[k-1]
		s.free = s.free[:k-1]
		return buf
	}
	if len(s.slab) < c.blockSize {
		blocks := c.shardCap
		if blocks > slabBlocks {
			blocks = slabBlocks
		}
		s.slab = make([]byte, blocks*c.blockSize)
	}
	buf := s.slab[:c.blockSize:c.blockSize]
	s.slab = s.slab[c.blockSize:]
	return buf
}

// lruPush inserts b at the head (most recently used) of the shard's
// chain. Caller holds s.mu.
func (s *shard) lruPush(b *block) {
	b.prev = nil
	b.next = s.lruHead
	if s.lruHead != nil {
		s.lruHead.prev = b
	}
	s.lruHead = b
	if s.lruTail == nil {
		s.lruTail = b
	}
}

// lruRemove unlinks b from the chain. Caller holds s.mu.
func (s *shard) lruRemove(b *block) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		s.lruHead = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		s.lruTail = b.prev
	}
	b.prev, b.next = nil, nil
}

// lruTouch moves b to the head of the chain. Caller holds s.mu.
func (s *shard) lruTouch(b *block) {
	if s.lruHead == b {
		return
	}
	s.lruRemove(b)
	s.lruPush(b)
}

// evict sheds least-recently-used blocks until the shard is back under
// capacity, writing dirty victims back first. keep is the block the caller
// is about to copy from or into and must survive even if it is the LRU tail.
// Caller holds s.mu.
func (c *Cache) evict(s *shard, keep *block) error {
	victim := s.lruTail
	for len(s.blocks) > c.shardCap && victim != nil {
		if victim == keep {
			victim = victim.prev
			continue
		}
		prev := victim.prev
		if victim.dirty {
			if err := c.backing.WriteBlock(victim.n, victim.data); err != nil {
				return fmt.Errorf("bcache: write-back block %d: %w", victim.n, err)
			}
			victim.dirty = false
			c.count(func(st *Stats) { st.Writebacks++ })
		}
		s.lruRemove(victim)
		delete(s.blocks, victim.n)
		s.free = append(s.free, victim.data)
		victim.data = nil
		c.count(func(st *Stats) { st.Evictions++ })
		victim = prev
	}
	return nil
}

// fill loads block n into the shard (from the free list/slab and backing
// device) and returns it. Caller holds s.mu and has checked b absent.
func (c *Cache) fill(s *shard, n int) (*block, error) {
	buf := c.alloc(s)
	if err := c.backing.ReadBlock(n, buf); err != nil {
		s.free = append(s.free, buf)
		return nil, err
	}
	b := &block{n: n, data: buf}
	s.blocks[n] = b
	s.lruPush(b)
	if err := c.evict(s, b); err != nil {
		return nil, err
	}
	return b, nil
}

// count applies a mutation to the stats counters.
func (c *Cache) count(f func(*Stats)) {
	c.statMu.Lock()
	f(&c.stats)
	c.statMu.Unlock()
}

// ReadBlock implements blockdev.Device: the one-block ReadExtent.
func (c *Cache) ReadBlock(n int, dst []byte) error { return c.ReadExtent(n, 1, dst) }

// WriteBlock implements blockdev.Device: the one-block WriteExtent.
func (c *Cache) WriteBlock(n int, src []byte) error { return c.WriteExtent(n, 1, src) }

// ReadExtent implements blockdev.ExtentDevice: one shard pass per run, each
// block a cache hit or a fill from backing.
func (c *Cache) ReadExtent(n, count int, dst []byte) error {
	if err := c.checkIO(n, count, dst); err != nil {
		return err
	}
	return blockdev.EachRun(n, count, func(lo, hi int) error {
		s := c.shard(lo)
		s.mu.Lock()
		defer s.mu.Unlock()
		return c.readRun(s, lo, hi, dst[(lo-n)*c.blockSize:], nil)
	})
}

// readRun copies blocks [lo, hi), one run, into dst: a snapshot's copied-aside
// block from its overlay (nil for the live view), else a cached block, else —
// a miss — the backing device's, filled into the cache for the live view and
// read straight into dst for a snapshot. Caller holds s.mu, and the
// snapshot's lock for reading.
func (c *Cache) readRun(s *shard, lo, hi int, dst []byte, overlay map[int][]byte) (err error) {
	b, misses := lo, 0
	defer func() {
		c.count(func(st *Stats) { st.Hits, st.Misses = st.Hits+int64(b-lo-misses), st.Misses+int64(misses) })
	}()
	for ; b < hi && err == nil; b++ {
		out := dst[(b-lo)*c.blockSize : (b-lo+1)*c.blockSize]
		switch blk := s.blocks[b]; {
		case overlay[b] != nil:
			copy(out, overlay[b])
		case blk != nil:
			copy(out, blk.data)
			s.lruTouch(blk)
		case overlay != nil:
			misses++
			err = c.backing.ReadBlock(b, out)
		default:
			misses++
			if blk, err = c.fill(s, b); err == nil {
				copy(out, blk.data)
			}
		}
	}
	return err
}

// WriteExtent implements blockdev.ExtentDevice: one copy-on-write decision
// per run for outstanding snapshots, then the new contents buffered dirty in
// the cache.
func (c *Cache) WriteExtent(n, count int, src []byte) error {
	if err := c.checkIO(n, count, src); err != nil {
		return err
	}
	return blockdev.EachRun(n, count, func(lo, hi int) error {
		s := c.shard(lo)
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := c.cowCopy(s, lo, hi); err != nil {
			return err
		}
		for b := lo; b < hi; b++ {
			blk := s.blocks[b]
			if blk == nil {
				blk = &block{n: b, data: c.alloc(s)}
				s.blocks[b] = blk
				s.lruPush(blk)
			} else {
				s.lruTouch(blk)
			}
			copy(blk.data, src[(b-n)*c.blockSize:])
			blk.dirty = true
			if err := c.evict(s, blk); err != nil {
				return err
			}
		}
		return nil
	})
}

// cowCopy preserves the pre-write contents of blocks [lo, hi), one run, for
// every outstanding snapshot that has not copied them aside yet. Caller holds
// s.mu; lock order is shard.mu → snapMu → snapshot.mu.
func (c *Cache) cowCopy(s *shard, lo, hi int) error {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	if len(c.snaps) == 0 {
		return nil
	}
	// One immutable copy of a block's old contents is shared by every
	// snapshot that still needs it; it is only materialized if one does.
	var olds [blockdev.RunBlocks][]byte
	copies := 0
	defer func() { c.count(func(st *Stats) { st.CowCopies += int64(copies) }) }()
	for snap := range c.snaps {
		snap.mu.Lock()
		for n := lo; n < hi; n++ {
			if _, have := snap.overlay[n]; have {
				continue
			}
			if olds[n-lo] == nil {
				old := c.alloc(s)
				if b := s.blocks[n]; b != nil {
					copy(old, b.data)
				} else if err := c.backing.ReadBlock(n, old); err != nil {
					s.free = append(s.free, old)
					snap.mu.Unlock()
					return fmt.Errorf("bcache: cow read block %d: %w", n, err)
				}
				olds[n-lo] = old
				copies++
			}
			snap.overlay[n] = olds[n-lo]
		}
		snap.mu.Unlock()
	}
	return nil
}

// Flush writes every dirty cached block back to the backing device.
func (c *Cache) Flush() error {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, b := range s.blocks {
			if !b.dirty {
				continue
			}
			if err := c.backing.WriteBlock(b.n, b.data); err != nil {
				s.mu.Unlock()
				return fmt.Errorf("bcache: flush block %d: %w", b.n, err)
			}
			b.dirty = false
			c.count(func(st *Stats) { st.Writebacks++ })
		}
		s.mu.Unlock()
	}
	return nil
}

// Snapshot implements blockdev.Volume: it freezes a point-in-time read-only
// view. Taking a snapshot is O(1); the cost is paid lazily by the first
// write to each block while the snapshot is outstanding.
func (c *Cache) Snapshot() blockdev.Snapshot {
	sn := &snapshot{c: c, overlay: make(map[int][]byte)}
	c.snapMu.Lock()
	c.snaps[sn] = struct{}{}
	c.snapMu.Unlock()
	return sn
}

// Release implements blockdev.Volume: flush dirty blocks and end the
// volume's lifecycle. It fails — leaving the cache usable — if snapshots
// are still outstanding, which makes leaked references loud instead of
// silent.
func (c *Cache) Release() error {
	c.snapMu.Lock()
	outstanding := len(c.snaps)
	c.snapMu.Unlock()
	if outstanding > 0 {
		return fmt.Errorf("bcache: release with %d snapshots outstanding", outstanding)
	}
	if err := c.Flush(); err != nil {
		return err
	}
	c.released.Store(true)
	return nil
}

// AllocatedBitmap implements blockdev.Allocator. When the backing device
// knows its allocation footprint the result is that bitmap plus any cached
// dirty blocks not yet written back; otherwise every block is reported
// allocated, which is always safe. The shards are scanned before the backing
// map is taken: an eviction writes a dirty block back under its shard lock
// before the block leaves the shard, so every block written before the call
// is in the scan or in the backing map (taken the other way round, neither
// need hold a block written back in between).
func (c *Cache) AllocatedBitmap() *bitmap.Bitmap {
	a, ok := c.backing.(blockdev.Allocator)
	if !ok {
		return bitmap.NewAllSet(c.numBlocks)
	}
	bm := bitmap.New(c.numBlocks)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, b := range s.blocks {
			if b.dirty {
				bm.Set(b.n)
			}
		}
		s.mu.Unlock()
	}
	bm.Union(a.AllocatedBitmap())
	return bm
}

// Stats returns a consistent copy of the cache counters plus current
// residency numbers.
func (c *Cache) Stats() Stats {
	c.statMu.Lock()
	st := c.stats
	c.statMu.Unlock()
	c.snapMu.Lock()
	st.Snapshots = len(c.snaps)
	c.snapMu.Unlock()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Cached += len(s.blocks)
		for _, b := range s.blocks {
			if b.dirty {
				st.Dirty++
			}
		}
		s.mu.Unlock()
	}
	return st
}
