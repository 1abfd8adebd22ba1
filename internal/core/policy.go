package core

import (
	"sync"
	"time"
)

// IterationStat summarizes one completed pre-copy iteration for policy
// decisions and progress events. Threshold and MaxIterations carry the
// configured limits so policies can stay stateless with respect to Config.
type IterationStat struct {
	Phase     string // PhaseDiskPreCopy or PhaseMemPreCopy
	Iteration int    // 1-based index of the iteration that just finished
	Sent      int    // units (blocks or pages) transferred
	Skipped   int    // units of the iteration's set left out as already dirty again (counted in Dirty, not in Sent)
	SentBytes int64  // wire bytes of the iteration's frames
	Duration  time.Duration
	Dirty     int // dirty units when the iteration ended
	PrevDirty int // dirty count after the previous iteration (or the initial set size)

	Threshold     int // configured dirty threshold for this phase
	MaxIterations int // configured iteration budget for this phase
}

// Policy owns the transfer decisions the engine cannot make from its own
// measurements: when to run another pre-copy iteration (§IV-A-1), how many
// contiguous blocks to coalesce per frame, and how hard to pace the
// pre-copy phases (§VI-C-3). Compression is not among them:
// transport.Compressed deflates every payload and sends raw whatever did not
// shrink.
//
// The engine consults the policy; the wire protocol constrains nothing —
// every choice a Policy can make produces frames any destination accepts, so
// policies are a local (non-negotiated) concern. DefaultPolicy reproduces
// the paper's exact behavior and is wire-identical to the seed protocol
// (guarded by the golden trace test); AdaptivePolicy grows the extent limit
// from observed throughput.
//
// ObserveExtent is a feedback hook called from the walker's lanes, possibly
// from several goroutines at once; implementations must be concurrency-safe.
type Policy interface {
	// ContinuePreCopy reports whether another pre-copy iteration should run
	// after the one st describes. Returning false hands the remaining dirty
	// set to the next phase (freeze-and-copy for disk, suspend for memory).
	ContinuePreCopy(st IterationStat) bool

	// ExtentBlocks returns the extent coalescing limit to use right now;
	// configured is Config.MaxExtentBlocks. The engine clamps the result to
	// what one frame can carry. Values <= 1 select the paper's
	// block-per-message format.
	ExtentBlocks(configured int) int

	// ObserveExtent feeds one completed extent send back: blocks coalesced,
	// wire bytes, and the time the read+send took — the send alone where
	// Readahead has split the read off onto lanes of its own. It is called
	// from the walker's lanes, so with Workers > 1 or Readahead > 0
	// concurrently with ExtentBlocks.
	ObserveExtent(blocks int, wireBytes int64, d time.Duration)

	// PrecopyRate returns the pre-copy pacing in bytes/second; configured is
	// Config.BandwidthLimit (clock.Unlimited when uncapped). The cap applies
	// to pre-copy traffic only — freeze-and-copy and post-copy are never
	// throttled.
	PrecopyRate(configured int64) int64
}

// DefaultPolicy reproduces the paper's fixed behavior: stop conditions from
// the configured thresholds and budgets (§IV-A-1), the configured extent
// size, pacing from Config. The zero value is ready to use.
type DefaultPolicy struct{}

// ContinuePreCopy implements the paper's three stop conditions: dirty set
// below threshold, iteration budget exhausted, or the dirty rate catching up
// with the transfer rate (the set stopped shrinking).
func (DefaultPolicy) ContinuePreCopy(st IterationStat) bool {
	if st.Dirty <= st.Threshold {
		return false
	}
	if st.Iteration >= st.MaxIterations {
		return false
	}
	if st.Iteration > 1 && st.Dirty >= st.PrevDirty {
		return false
	}
	return true
}

// ExtentBlocks returns the configured limit unchanged.
func (DefaultPolicy) ExtentBlocks(configured int) int { return configured }

// ObserveExtent is a no-op.
func (DefaultPolicy) ObserveExtent(int, int64, time.Duration) {}

// PrecopyRate returns the configured cap unchanged.
func (DefaultPolicy) PrecopyRate(configured int64) int64 { return configured }

// AdaptivePolicy is extent slow start: the coalescing limit starts at the
// configured value and doubles after every adaptWindow full extents whose
// measured wire rate kept improving, up to the frame-payload cap. On a
// latency-bound link this converges on large extents within one pre-copy
// iteration; if the measured rate collapses (a congested or
// contention-limited link where big bursts hurt), the limit halves. Stop
// conditions and pacing follow DefaultPolicy — the adaptive layer changes
// how bytes move, not the paper's phase semantics.
//
// The zero value is ready to use. Safe for concurrent use by one migration;
// do not share one instance between concurrent migrations.
type AdaptivePolicy struct {
	DefaultPolicy

	mu      sync.Mutex
	extent  int     // current coalescing limit (0 = uninitialized)
	inGrow  int     // full extents observed in the current growth window
	bestBps float64 // best observed extent wire rate
}

// adaptWindow is how many full extents must be observed at the current limit
// before it doubles.
const adaptWindow = 4

// adaptMaxExtent caps growth; the engine additionally clamps to the frame
// payload limit and the device size.
const adaptMaxExtent = 1 << 14

// ExtentBlocks returns the adaptive coalescing limit, starting from the
// configured value.
func (p *AdaptivePolicy) ExtentBlocks(configured int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.extent == 0 {
		if configured < 1 {
			configured = 1
		}
		p.extent = configured
	}
	return p.extent
}

// ObserveExtent grows the limit while throughput keeps up and shrinks it
// when an extent's measured rate collapses.
func (p *AdaptivePolicy) ObserveExtent(blocks int, wireBytes int64, d time.Duration) {
	if d <= 0 {
		return
	}
	bps := float64(wireBytes) / d.Seconds()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.extent == 0 {
		p.extent = 1
	}
	if bps > p.bestBps {
		p.bestBps = bps
	}
	if blocks < p.extent {
		return // partial extent: run length, not the limit, bounded it
	}
	if p.bestBps > 0 && bps < p.bestBps/8 && p.extent > 1 {
		p.extent /= 2
		p.inGrow = 0
		return
	}
	p.inGrow++
	if p.inGrow >= adaptWindow && p.extent < adaptMaxExtent {
		p.extent *= 2
		p.inGrow = 0
	}
}
