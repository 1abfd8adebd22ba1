package blkback

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
)

// ErrGateClosed is returned for requests submitted after the gate shut down
// (e.g. the migration was aborted while a read waited for its pull).
var ErrGateClosed = errors.New("blkback: post-copy gate closed")

// PullFunc asks the source for block n. It must not block for long; the
// reply arrives later through ReceiveBlock.
type PullFunc func(n int) error

// GateStats counts post-copy gate activity.
type GateStats struct {
	Reads           int64         // read requests from the migrated VM
	Writes          int64         // write requests from the migrated VM
	ForeignReqs     int64         // requests from other domains, passed through
	Pulls           int64         // pull requests sent to the source
	PullHits        int64         // reads that had to wait for a pulled block
	StalePushes     int64         // received blocks dropped because a local write superseded them
	AppliedBlocks   int64         // received blocks written to the local disk
	ReadStallTime   time.Duration // total time reads spent waiting for pulls
	WriteOverlaps   int64         // writes that hit a still-dirty block (cancelled its pull need)
	PendingReleases int64         // queued requests released by received blocks
}

// PostCopyGate is the destination-side interceptor active during the
// post-copy phase. All I/O of the resumed VM flows through Submit; blocks
// arriving from the source (pushed or pulled) flow through ReceiveBlock.
//
// Invariants enforced (paper §IV-A-3):
//
//   - A read returns only up-to-date data: if the block is marked in the
//     transferred bitmap the read waits until the block has been received.
//   - A write to a dirty block clears its transferred bit — the local write
//     supersedes the source copy, so a later push of that block is dropped.
//   - Every write is recorded in the new block-bitmap for incremental
//     migration back.
type PostCopyGate struct {
	dev    blockdev.Device
	domain int
	pull   PullFunc

	mu          sync.Mutex
	transferred *bitmap.Bitmap // blocks still inconsistent with the source
	fresh       *bitmap.Atomic // BM_3: new writes on the destination (for IM)
	pending     map[int][]chan error
	pullSent    map[int]bool
	closed      bool

	stats   GateStats
	statsMu sync.Mutex
}

// NewPostCopyGate builds a gate over dev for the migrated domain. transferred
// is the bitmap received in freeze-and-copy (ownership passes to the gate);
// pull sends a pull request to the source.
func NewPostCopyGate(dev blockdev.Device, domain int, transferred *bitmap.Bitmap, pull PullFunc) *PostCopyGate {
	if transferred.Len() != dev.NumBlocks() {
		panic(fmt.Sprintf("blkback: bitmap %d bits for %d blocks", transferred.Len(), dev.NumBlocks()))
	}
	return &PostCopyGate{
		dev:         dev,
		domain:      domain,
		pull:        pull,
		transferred: transferred,
		fresh:       bitmap.NewAtomic(dev.NumBlocks()),
		pending:     make(map[int][]chan error),
		pullSent:    make(map[int]bool),
	}
}

// Submit implements the paper's destination intercept algorithm. It blocks
// until the request can be satisfied consistently, which for a read of a
// dirty block means waiting for the pull reply.
func (g *PostCopyGate) Submit(req blockdev.Request) error {
	// Line 3: requests from other domains bypass the gate entirely.
	if req.Domain != g.domain {
		g.statsMu.Lock()
		g.stats.ForeignReqs++
		g.statsMu.Unlock()
		return g.submitPhysical(req)
	}

	switch req.Op {
	case blockdev.Write:
		// Lines 5-10: no pulling needed. Record in the new bitmap, clear
		// the transferred bit (the whole block is overwritten locally, so
		// the source copy is obsolete), submit.
		g.mu.Lock()
		wasDirty := g.transferred.Test(req.Block)
		var waiters []chan error
		if wasDirty {
			g.transferred.Clear(req.Block)
			// Reads queued behind a pull of this block would wait forever:
			// the push/pull reply will now be dropped as stale. The local
			// write makes the block current, so release them after the
			// physical write lands.
			waiters = g.pending[req.Block]
			delete(g.pending, req.Block)
			delete(g.pullSent, req.Block)
		}
		g.fresh.Set(req.Block)
		g.mu.Unlock()
		g.statsMu.Lock()
		g.stats.Writes++
		if wasDirty {
			g.stats.WriteOverlaps++
		}
		g.stats.PendingReleases += int64(len(waiters))
		g.statsMu.Unlock()
		err := g.submitPhysical(req)
		for _, w := range waiters {
			w <- err
		}
		return err

	case blockdev.Read:
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			return ErrGateClosed
		}
		// Line 11: clean block — submit directly.
		if !g.transferred.Test(req.Block) {
			g.mu.Unlock()
			g.statsMu.Lock()
			g.stats.Reads++
			g.statsMu.Unlock()
			return g.submitPhysical(req)
		}
		// Line 13: dirty block — queue the request and pull.
		done := make(chan error, 1)
		g.pending[req.Block] = append(g.pending[req.Block], done)
		needPull := !g.pullSent[req.Block]
		g.pullSent[req.Block] = true
		g.mu.Unlock()

		g.statsMu.Lock()
		g.stats.Reads++
		g.stats.PullHits++
		if needPull {
			g.stats.Pulls++
		}
		g.statsMu.Unlock()

		if needPull {
			// The push of this block may have won the race with the pull —
			// and the migration that delivered it may since have finished
			// and closed the link the pull wanted. A verdict already waiting
			// in done (only this goroutine receives from it) outranks the
			// pull's failure.
			if err := g.pull(req.Block); err != nil && len(done) == 0 {
				return fmt.Errorf("blkback: pull block %d: %w", req.Block, err)
			}
		}
		start := time.Now()
		err := <-done
		g.statsMu.Lock()
		g.stats.ReadStallTime += time.Since(start)
		g.statsMu.Unlock()
		if err != nil {
			return err
		}
		return g.submitPhysical(req)

	default:
		return fmt.Errorf("blkback: unknown op %v", req.Op)
	}
}

func (g *PostCopyGate) submitPhysical(req blockdev.Request) error {
	switch req.Op {
	case blockdev.Read:
		return g.dev.ReadBlock(req.Block, req.Data)
	default:
		return g.dev.WriteBlock(req.Block, req.Data)
	}
}

// ReceiveBlock implements the paper's received-block algorithm: stale pushes
// (bit already cleared by a local write) are dropped; otherwise the block is
// applied, the bit cleared, and any pending reads released.
func (g *PostCopyGate) ReceiveBlock(n int, data []byte) error {
	g.mu.Lock()
	if !g.transferred.Test(n) {
		// Lines 2-3: a destination write superseded this block.
		g.mu.Unlock()
		g.statsMu.Lock()
		g.stats.StalePushes++
		g.statsMu.Unlock()
		return nil
	}
	// Line 4-5: apply and mark consistent. The device write happens under
	// the gate lock so a racing VM write cannot be overwritten by stale
	// source data (write order: received-then-local = local wins via its
	// own later WriteBlock; local-then-received is excluded by the bit
	// check above, which the local write cleared under this same lock).
	if err := g.dev.WriteBlock(n, data); err != nil {
		g.mu.Unlock()
		return fmt.Errorf("blkback: apply received block %d: %w", n, err)
	}
	g.transferred.Clear(n)
	waiters := g.pending[n]
	delete(g.pending, n)
	delete(g.pullSent, n)
	g.mu.Unlock()

	g.statsMu.Lock()
	g.stats.AppliedBlocks++
	g.stats.PendingReleases += int64(len(waiters))
	g.statsMu.Unlock()
	// Lines 6-11: release queued requests for this block.
	for _, w := range waiters {
		w <- nil
	}
	return nil
}

// RemainingDirty returns how many blocks are still inconsistent.
func (g *PostCopyGate) RemainingDirty() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.transferred.Count()
}

// Synchronized reports whether every block is consistent with the source.
func (g *PostCopyGate) Synchronized() bool { return g.RemainingDirty() == 0 }

// NeedsPush reports whether block n still needs the source copy, letting the
// source pusher skip blocks the destination has overwritten. (The paper's
// source pushes blindly and the destination drops; exposing this check also
// enables the "skip-stale" ablation.)
func (g *PostCopyGate) NeedsPush(n int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.transferred.Test(n)
}

// FreshBitmap returns a snapshot of the new-writes bitmap (BM_3), the input
// to a later incremental migration back to the source.
func (g *PostCopyGate) FreshBitmap() *bitmap.Bitmap { return g.fresh.Snapshot() }

// Close aborts the gate: all pending reads fail with ErrGateClosed.
func (g *PostCopyGate) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	var all []chan error
	for n, ws := range g.pending {
		all = append(all, ws...)
		delete(g.pending, n)
	}
	g.mu.Unlock()
	for _, w := range all {
		w <- ErrGateClosed
	}
}

// Stats returns a snapshot of the gate counters.
func (g *PostCopyGate) Stats() GateStats {
	g.statsMu.Lock()
	defer g.statsMu.Unlock()
	return g.stats
}
