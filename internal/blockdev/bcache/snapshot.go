package bcache

import (
	"fmt"
	"sync"

	"bbmig/internal/blockdev"
)

// snapshot is a frozen point-in-time view of a Cache, implementing
// blockdev.Snapshot. Blocks the guest has overwritten since the snapshot
// was taken are served from the copy-aside overlay; untouched blocks are
// read through the live cache, because untouched means their live contents
// still equal the snapshot-time contents.
type snapshot struct {
	c *Cache

	mu       sync.Mutex
	overlay  map[int][]byte // block → immutable pre-write contents
	released bool
}

// BlockSize implements blockdev.Device.
func (sn *snapshot) BlockSize() int { return sn.c.blockSize }

// NumBlocks implements blockdev.Device.
func (sn *snapshot) NumBlocks() int { return sn.c.numBlocks }

// ReadBlock implements blockdev.Device: overlay first, then the live
// cache. The whole lookup runs under the block's shard lock so it cannot
// interleave with a writer's copy-aside-then-overwrite sequence.
func (sn *snapshot) ReadBlock(n int, dst []byte) error {
	c := sn.c
	if err := c.checkIO(n, dst); err != nil {
		return err
	}
	s := c.shard(n)
	s.mu.Lock()
	defer s.mu.Unlock()
	sn.mu.Lock()
	if sn.released {
		sn.mu.Unlock()
		return fmt.Errorf("bcache: read block %d from released snapshot", n)
	}
	old := sn.overlay[n]
	sn.mu.Unlock()
	if old != nil {
		copy(dst, old)
		c.count(func(st *Stats) { st.Hits++ })
		return nil
	}
	if b := s.blocks[n]; b != nil {
		copy(dst, b.data)
		s.lruTouch(b)
		c.count(func(st *Stats) { st.Hits++ })
		return nil
	}
	c.count(func(st *Stats) { st.Misses++ })
	return c.backing.ReadBlock(n, dst)
}

// WriteBlock implements blockdev.Device by refusing: snapshots are frozen.
func (sn *snapshot) WriteBlock(int, []byte) error {
	return blockdev.ErrSnapshotReadOnly
}

// Release implements blockdev.Snapshot: deregister from the cache and drop
// the overlay. Live writes stop copying aside for this snapshot, and the
// copied blocks become garbage (shared copies are freed when the last
// snapshot referencing them goes).
func (sn *snapshot) Release() {
	// Deregister first, then mark released: snapMu before sn.mu, the same
	// order writers use, so Release cannot deadlock against a CoW copy.
	sn.c.snapMu.Lock()
	delete(sn.c.snaps, sn)
	sn.c.snapMu.Unlock()
	sn.mu.Lock()
	sn.released = true
	sn.overlay = nil
	sn.mu.Unlock()
}
