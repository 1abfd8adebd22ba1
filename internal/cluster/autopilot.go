// The autopilot is the cluster's continuous control loop: where Drain and
// Rebalance are one-shot operator verbs, the autopilot watches heartbeat
// load on a fixed cadence, plans spread-≤1 rebalance moves against the
// fresh snapshot, and trickles them through the scheduler at low priority —
// under the same shared core.RateBudget, deferred into predicted write-rate
// troughs when Options.Forecast is on. It never blocks on its own moves:
// each cycle reaps what settled, re-plans what remains, and skips domains
// already in flight, so a slow migration delays nothing but itself.

package cluster

import (
	"sync"
	"time"
)

// Defaults for AutopilotOptions fields left zero.
const (
	// DefaultAutopilotInterval is the control-loop cadence: long enough
	// that heartbeat costs stay noise, short enough that imbalance is
	// noticed within a few migrations' time.
	DefaultAutopilotInterval = 5 * time.Second
	// DefaultAutopilotMoves caps how many new moves one cycle submits:
	// rebalancing is a background trickle, not a stampede.
	DefaultAutopilotMoves = 2
)

// AutopilotOptions parameterizes a control loop.
type AutopilotOptions struct {
	// Interval is the cycle cadence; zero selects DefaultAutopilotInterval.
	Interval time.Duration
	// MaxMovesPerCycle caps the moves the autopilot keeps in flight (and
	// therefore the new submissions any one cycle makes); zero selects
	// DefaultAutopilotMoves.
	MaxMovesPerCycle int
}

// AutopilotStats is a point-in-time counter snapshot of one autopilot.
type AutopilotStats struct {
	// Cycles counts completed control-loop iterations.
	Cycles int
	// Planned counts moves the rebalance planner proposed (pre-cap).
	Planned int
	// Submitted counts jobs actually handed to the scheduler.
	Submitted int
	// Completed and Failed count settled moves by outcome.
	Completed, Failed int
	// InFlight counts submitted moves not yet settled.
	InFlight int
	// Deferred counts submitted moves currently parked on a NotBefore
	// trough deferral (still InFlight).
	Deferred int
}

// Autopilot is a running control loop created by StartAutopilot.
type Autopilot struct {
	c    *Cluster
	opts AutopilotOptions
	stop chan struct{}
	wg   sync.WaitGroup

	mu       sync.Mutex
	stats    AutopilotStats
	inflight map[string]*Ticket // domain -> unsettled move
}

// StartAutopilot launches the continuous rebalance control loop and returns
// its handle. Multiple autopilots on one cluster are pointless but safe —
// the scheduler's admission control is the serialization point. Stop the
// loop with Autopilot.Stop.
func (c *Cluster) StartAutopilot(opts AutopilotOptions) *Autopilot {
	if opts.Interval <= 0 {
		opts.Interval = DefaultAutopilotInterval
	}
	if opts.MaxMovesPerCycle <= 0 {
		opts.MaxMovesPerCycle = DefaultAutopilotMoves
	}
	a := &Autopilot{
		c:        c,
		opts:     opts,
		stop:     make(chan struct{}),
		inflight: make(map[string]*Ticket),
	}
	a.wg.Add(1)
	go a.run()
	return a
}

// run is the loop: observe (heartbeats), reap, plan, act — every interval.
func (a *Autopilot) run() {
	defer a.wg.Done()
	ticker := time.NewTicker(a.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-ticker.C:
			a.cycle()
		}
	}
}

// cycle runs one control iteration.
func (a *Autopilot) cycle() {
	a.c.HeartbeatAll()
	a.reap()

	a.mu.Lock()
	skip := make(map[string]bool, len(a.inflight))
	for d := range a.inflight {
		skip[d] = true
	}
	budget := a.opts.MaxMovesPerCycle - len(a.inflight)
	a.mu.Unlock()

	plan := a.c.rebalancePlan(skip)

	a.mu.Lock()
	a.stats.Cycles++
	a.stats.Planned += len(plan)
	a.mu.Unlock()

	for _, p := range plan {
		if budget <= 0 {
			break
		}
		// Destination pinned to the planner's choice, the only host the move
		// is known to narrow the spread on: dispatch-time placement weighs a
		// retained copy of the domain's disk above headroom, so an unpinned
		// move bounces between the hosts that already held the domain. A
		// pinned move onto a since-filled host fails, is reaped, and is
		// re-planned against fresh loads next cycle.
		t, err := a.c.Submit(Job{
			Domain: p.domain, From: p.from, To: p.to, Priority: PriorityLow,
		})
		a.mu.Lock()
		if err != nil {
			// Racing drains and operator moves invalidate plans between
			// snapshot and submit; the next cycle re-plans from scratch.
			a.stats.Failed++
		} else {
			a.stats.Submitted++
			a.inflight[p.domain] = t
		}
		a.mu.Unlock()
		budget--
	}
}

// reap folds settled moves into the stats and frees their domains for
// re-planning.
func (a *Autopilot) reap() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for d, t := range a.inflight {
		switch t.State() {
		case JobDone:
			a.stats.Completed++
			delete(a.inflight, d)
		case JobFailed, JobCanceled:
			a.stats.Failed++
			delete(a.inflight, d)
		}
	}
}

// Stats returns a snapshot of the loop's counters.
func (a *Autopilot) Stats() AutopilotStats {
	a.reap()
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.stats
	st.InFlight = len(a.inflight)
	now := a.c.opts.now()
	for _, t := range a.inflight {
		if nb := t.NotBefore(); !nb.IsZero() && now.Before(nb) && t.State() == JobQueued {
			st.Deferred++
		}
	}
	return st
}

// Stop ends the control loop and blocks until every in-flight move settles
// (migrations are not abortable mid-flight; still-deferred queued moves are
// canceled rather than waited out). The cluster itself keeps running.
func (a *Autopilot) Stop() {
	close(a.stop)
	a.wg.Wait()

	a.mu.Lock()
	tickets := make([]*Ticket, 0, len(a.inflight))
	for _, t := range a.inflight {
		tickets = append(tickets, t)
	}
	a.mu.Unlock()
	for _, t := range tickets {
		t.Cancel() // settles still-queued (e.g. trough-deferred) moves now
		t.Wait()
	}
	a.reap()
}
