// Package blkback is the block backend driver: the interposition layer
// between a domain's virtual block device frontend and the physical device,
// mirroring Xen's split-driver blkback that the paper modifies (§IV-B).
//
// Two components live here:
//
//   - Backend: the source-side driver. It submits requests to the device and,
//     when tracking is enabled, records the location of every written block
//     in an atomic block-bitmap ("if the blkback intercepts a write request,
//     it will split the requested area into 4K blocks and set corresponding
//     bits in the block-bitmap"). That is ALL it does now: since the Volume
//     redesign the migration engine reads frozen snapshots of the volume
//     (see Volume) instead of reaching through the gate to the raw device,
//     so the write-intercept is pure dirty tracking with no entanglement in
//     how migration data is read.
//   - PostCopyGate: the destination-side driver used during the post-copy
//     phase. It implements the paper's two pseudocode listings from §IV-A-3
//     verbatim: the I/O-intercept algorithm (pending list P, write→mark new
//     bitmap and clear transferred bitmap, read-of-dirty→pull) and the
//     received-block algorithm (drop stale pushes, release pending requests).
package blkback

import (
	"fmt"
	"sync/atomic"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
)

// Stats aggregates the request counters a Backend maintains.
type Stats struct {
	Reads        int64 // read requests submitted
	Writes       int64 // write requests submitted
	TrackedBits  int64 // write-block bits recorded while tracking
	ForeignReqs  int64 // requests from domains other than the tracked one
	RewriteHits  int64 // tracked writes whose bit was already set (locality)
	BytesRead    int64
	BytesWritten int64
}

// Backend wraps a device and tracks writes of one domain into a block-bitmap.
// It is safe for concurrent use: the guest submits I/O from its own
// goroutines while the migration engine swaps the bitmap out per iteration.
type Backend struct {
	dev      blockdev.Device
	domain   int // the migrated VM's domain ID; others pass through untracked
	tracking atomic.Bool
	dirty    *bitmap.Atomic

	reads       atomic.Int64
	writes      atomic.Int64
	trackedBits atomic.Int64
	foreign     atomic.Int64
	rewrites    atomic.Int64
	bytesRead   atomic.Int64
	bytesWrit   atomic.Int64
}

// NewBackend returns a Backend over dev that tracks writes from domain.
func NewBackend(dev blockdev.Device, domain int) *Backend {
	return &Backend{
		dev:    dev,
		domain: domain,
		dirty:  bitmap.NewAtomic(dev.NumBlocks()),
	}
}

// Device returns the wrapped device: the guest's live I/O path, and the
// destination engine's apply target. Source-side migration reads should go
// through Volume snapshots instead.
func (b *Backend) Device() blockdev.Device { return b.dev }

// Volume returns the wrapped device's snapshot capability when it was wired
// with one (hostd backs every domain with a bcache volume). The migration
// engine freezes point-in-time snapshots through it for each pre-copy pass,
// which is what lets this gate stay a pure dirty tracker: consistent read
// views are the volume's job, not the write-intercept's.
func (b *Backend) Volume() (blockdev.Volume, bool) {
	v, ok := b.dev.(blockdev.Volume)
	return v, ok
}

// Domain returns the tracked domain ID.
func (b *Backend) Domain() int { return b.domain }

// StartTracking begins recording written blocks. The migration engine calls
// this right before the first pre-copy iteration.
func (b *Backend) StartTracking() { b.tracking.Store(true) }

// StopTracking stops recording written blocks.
func (b *Backend) StopTracking() { b.tracking.Store(false) }

// Tracking reports whether write tracking is active.
func (b *Backend) Tracking() bool { return b.tracking.Load() }

// Submit performs one I/O request. For reads, req.Data must be a buffer of
// at least one block; for writes it is the payload. Writes from the tracked
// domain are recorded in the dirty bitmap while tracking is enabled.
func (b *Backend) Submit(req blockdev.Request) error {
	switch req.Op {
	case blockdev.Read:
		b.reads.Add(1)
		b.bytesRead.Add(int64(b.dev.BlockSize()))
		if req.Domain != b.domain {
			b.foreign.Add(1)
		}
		return b.dev.ReadBlock(req.Block, req.Data)
	case blockdev.Write:
		b.writes.Add(1)
		b.bytesWrit.Add(int64(b.dev.BlockSize()))
		if req.Domain != b.domain {
			b.foreign.Add(1)
			return b.dev.WriteBlock(req.Block, req.Data)
		}
		// The write lands first; only then is tracking consulted and the bit
		// set. A bit set before its data exists could be swapped out and the
		// block read (from a snapshot taken in between) without it, and a
		// write that saw tracking off just before StartTracking could land
		// after the first iteration's snapshot: either way the write would
		// be owed by nobody.
		err := b.dev.WriteBlock(req.Block, req.Data)
		if b.tracking.Load() {
			if b.dirty.Test(req.Block) {
				b.rewrites.Add(1)
			} else {
				b.trackedBits.Add(1)
			}
			b.dirty.Set(req.Block)
		}
		return err
	default:
		return fmt.Errorf("blkback: unknown op %v", req.Op)
	}
}

// SwapDirty atomically captures and resets the dirty bitmap — the
// per-iteration "blkd reads the block-bitmap from blkback, then it is reset"
// step.
func (b *Backend) SwapDirty() *bitmap.Bitmap { return b.dirty.SwapOut() }

// DirtySnapshot returns the current bitmap without clearing it.
func (b *Backend) DirtySnapshot() *bitmap.Bitmap { return b.dirty.Snapshot() }

// DirtyView returns a read-only view of the live dirty bitmap. The pre-copy
// send cursor consults it to leave out blocks the guest has already written
// again; it cannot clear or swap what it watches.
func (b *Backend) DirtyView() bitmap.View { return b.dirty.View() }

// DirtyCount returns the number of currently dirty blocks.
func (b *Backend) DirtyCount() int { return b.dirty.Count() }

// SeedDirty ORs a bitmap into the tracking state. Incremental migration uses
// this to start a migration from a saved bitmap instead of all-set.
func (b *Backend) SeedDirty(bm *bitmap.Bitmap) {
	bm.ForEachSet(func(i int) bool { b.dirty.Set(i); return true })
}

// Stats returns a snapshot of the request counters.
func (b *Backend) Stats() Stats {
	return Stats{
		Reads:        b.reads.Load(),
		Writes:       b.writes.Load(),
		TrackedBits:  b.trackedBits.Load(),
		ForeignReqs:  b.foreign.Load(),
		RewriteHits:  b.rewrites.Load(),
		BytesRead:    b.bytesRead.Load(),
		BytesWritten: b.bytesWrit.Load(),
	}
}
