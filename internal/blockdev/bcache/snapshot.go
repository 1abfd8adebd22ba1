package bcache

import (
	"fmt"
	"sync"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
)

// snapshot is a frozen point-in-time view of a Cache, implementing
// blockdev.Snapshot. Blocks the guest has overwritten since the snapshot
// was taken are served from the copy-aside overlay; untouched blocks are
// read through the live cache, because untouched means their live contents
// still equal the snapshot-time contents.
type snapshot struct {
	c *Cache

	mu       sync.RWMutex   // readers share it for a run's reads; copy-aside and Release take it whole
	overlay  map[int][]byte // block → immutable pre-write contents
	released bool
}

// BlockSize implements blockdev.Device.
func (sn *snapshot) BlockSize() int { return sn.c.blockSize }

// NumBlocks implements blockdev.Device.
func (sn *snapshot) NumBlocks() int { return sn.c.numBlocks }

// ReadBlock implements blockdev.Device: the one-block ReadExtent.
func (sn *snapshot) ReadBlock(n int, dst []byte) error { return sn.ReadExtent(n, 1, dst) }

// ReadExtent implements blockdev.ExtentDevice: overlay first, then the live
// cache. Each run is read under its shard lock, so it cannot interleave with
// a writer's copy-aside-then-overwrite sequence, and under a shared hold of
// the snapshot's lock, so lanes reading other runs proceed alongside.
func (sn *snapshot) ReadExtent(n, count int, dst []byte) error {
	c := sn.c
	if err := c.checkIO(n, count, dst); err != nil {
		return err
	}
	return blockdev.EachRun(n, count, func(lo, hi int) error {
		s := c.shard(lo)
		s.mu.Lock()
		defer s.mu.Unlock()
		sn.mu.RLock()
		defer sn.mu.RUnlock()
		if sn.released {
			return fmt.Errorf("bcache: read blocks [%d,%d) from released snapshot", lo, hi)
		}
		return c.readRun(s, lo, hi, dst[(lo-n)*c.blockSize:], sn.overlay)
	})
}

// AllocatedBitmap implements blockdev.Allocator: the live cache's allocated
// blocks plus every block copied aside since the snapshot was taken. A block
// outside both was untouched and unallocated, so it reads as zeros here too.
func (sn *snapshot) AllocatedBitmap() *bitmap.Bitmap {
	bm := sn.c.AllocatedBitmap()
	sn.mu.Lock()
	for n := range sn.overlay {
		bm.Set(n)
	}
	sn.mu.Unlock()
	return bm
}

// WriteBlock implements blockdev.Device by refusing: snapshots are frozen.
func (sn *snapshot) WriteBlock(int, []byte) error { return blockdev.ErrSnapshotReadOnly }

// WriteExtent implements blockdev.ExtentDevice by refusing, as WriteBlock.
func (sn *snapshot) WriteExtent(int, int, []byte) error { return blockdev.ErrSnapshotReadOnly }

// Release implements blockdev.Snapshot: deregister from the cache and drop
// the overlay. Live writes stop copying aside for this snapshot, and each
// copied block no other snapshot shares goes back to its shard's free list,
// up to the shard's capacity (shared copies wait for the last snapshot
// holding them).
func (sn *snapshot) Release() {
	// Deregister and mark released under snapMu, then sn.mu — the order
	// writers use, so Release cannot deadlock against a CoW copy — and free
	// the copies after dropping both: shard locks come first in that order.
	c := sn.c
	c.snapMu.Lock()
	delete(c.snaps, sn)
	sn.mu.Lock()
	sn.released = true
	overlay := sn.overlay
	sn.overlay = nil
	sn.mu.Unlock()
	for other := range c.snaps {
		other.mu.RLock()
		for n, old := range overlay {
			if shared := other.overlay[n]; shared != nil && &shared[0] == &old[0] {
				delete(overlay, n)
			}
		}
		other.mu.RUnlock()
	}
	c.snapMu.Unlock()
	for n, old := range overlay {
		s := c.shard(n)
		s.mu.Lock()
		if len(s.free) < c.shardCap {
			s.free = append(s.free, old)
		}
		s.mu.Unlock()
	}
}
