package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"bbmig/internal/clock"
	"bbmig/internal/core"
	"bbmig/internal/hostd"
	"bbmig/internal/metrics"
)

// Priority orders queued jobs; higher runs first. Within a priority, jobs
// run in submission order.
type Priority uint8

// Job priorities, lowest to highest.
const (
	// PriorityLow suits background optimization moves.
	PriorityLow Priority = iota
	// PriorityNormal is the default for rebalancing and operator moves.
	PriorityNormal
	// PriorityHigh jumps the normal queue.
	PriorityHigh
	// PriorityEvacuate is reserved for drains: maintenance empties a host
	// before anything else runs.
	PriorityEvacuate
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityNormal:
		return "normal"
	case PriorityHigh:
		return "high"
	case PriorityEvacuate:
		return "evacuate"
	}
	return fmt.Sprintf("Priority(%d)", uint8(p))
}

// Job describes one migration for the scheduler.
type Job struct {
	// Domain is the guest to move; it must be hosted on From at submit time.
	Domain string
	// From is the source member name.
	From string
	// To, when non-empty, pins the destination; empty lets the placement
	// engine choose at dispatch time (fresher loads win).
	To string
	// Priority orders the queue; the zero value is PriorityLow.
	Priority Priority
	// PreSync, when true, pushes the domain's divergence to the destination
	// (hostd.SyncOut) before the live migration, so the cutover ships only
	// blocks written since — the paper's IM pre-sync. A pre-sync failure is
	// recorded but does not fail the job: the migration simply runs without
	// the head start.
	PreSync bool
	// Config, when non-nil, replaces the cluster's BaseConfig for this job
	// (the scheduler still wraps its Policy in the shared-budget decorator).
	Config *core.Config
	// NotBefore, when non-zero, holds the job in the queue until that
	// time: the caller's own trough plan. With Options.Forecast on and
	// NotBefore zero, admission stamps its own deferral from the domain's
	// predicted trough (low/normal priority only).
	NotBefore time.Time
}

// JobState is a Ticket's lifecycle position.
type JobState uint8

// Ticket states.
const (
	// JobQueued means the job is admitted to the queue but not started.
	JobQueued JobState = iota
	// JobRunning means the migration (or its pre-sync) is in flight.
	JobRunning
	// JobDone means the migration completed; Report is set.
	JobDone
	// JobFailed means the migration errored; Err is set and the guest keeps
	// running on the source.
	JobFailed
	// JobCanceled means Cancel won the race before the job started.
	JobCanceled
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCanceled:
		return "canceled"
	}
	return fmt.Sprintf("JobState(%d)", uint8(s))
}

// Ticket tracks one submitted job. All methods are safe for concurrent use.
type Ticket struct {
	c   *Cluster
	seq uint64
	job Job

	mu        sync.Mutex
	state     JobState
	target    string
	report    *metrics.Report
	sync      *hostd.SyncReport
	syncE     error
	err       error
	done      chan struct{}
	notBefore time.Time // resolved deferral (explicit or trough-stamped)
	deferEval bool      // trough deferral decided (it is decided once)
	wakeArmed bool      // a re-dispatch timer for notBefore exists
}

// Job returns the submitted job (To as submitted; see Target for the
// resolved destination).
func (t *Ticket) Job() Job { return t.job }

// State returns the ticket's current lifecycle state.
func (t *Ticket) State() JobState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Target returns the resolved destination member (empty until dispatch).
func (t *Ticket) Target() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.target
}

// NotBefore returns the job's resolved earliest-start time: the submitted
// Job.NotBefore, or the trough admission stamped onto it (zero when the job
// is free to start immediately).
func (t *Ticket) NotBefore() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.notBefore
}

// Report returns the source-side migration report (nil until JobDone, and on
// failures that died before the engine produced one).
func (t *Ticket) Report() *metrics.Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.report
}

// SyncReport returns the pre-sync outcome: the transfer summary and the
// pre-sync's own error, if it had one (a pre-sync failure leaves the
// migration itself to run, so Err may still be nil).
func (t *Ticket) SyncReport() (*hostd.SyncReport, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sync, t.syncE
}

// Err returns the terminal error (nil while running and on success).
func (t *Ticket) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Done returns a channel closed when the ticket reaches a terminal state.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the ticket is terminal and returns Err.
func (t *Ticket) Wait() error {
	<-t.done
	return t.Err()
}

// Cancel removes a still-queued job from the scheduler, returning true on
// success. A job that already started cannot be canceled — the migration
// either completes or fails on its own (block-bitmap migrations are not
// abortable mid-flight without stranding the guest), so Cancel returns
// false and the caller Waits.
func (t *Ticket) Cancel() bool {
	t.mu.Lock()
	if t.state != JobQueued {
		t.mu.Unlock()
		return false
	}
	t.state = JobCanceled
	t.err = fmt.Errorf("cluster: job canceled")
	close(t.done)
	t.mu.Unlock()

	c := t.c
	c.mu.Lock()
	for i, q := range c.pending {
		if q == t {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	return true
}

// Submit admits a job to the scheduler, returning its ticket. The job is
// validated against current membership (source registered and hosting the
// domain, pinned destination registered and distinct); it starts as soon as
// admission control allows — possibly before Submit returns.
func (c *Cluster) Submit(job Job) (*Ticket, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	src, ok := c.members[job.From]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown source member %q", job.From)
	}
	if _, hosted := src.machine.Domain(job.Domain); !hosted {
		return nil, fmt.Errorf("cluster: domain %q not hosted on %q", job.Domain, job.From)
	}
	if job.To != "" {
		if _, ok := c.members[job.To]; !ok {
			return nil, fmt.Errorf("cluster: unknown destination member %q", job.To)
		}
		if job.To == job.From {
			return nil, fmt.Errorf("cluster: job source and destination are both %q", job.From)
		}
	}
	c.seq++
	t := &Ticket{c: c, seq: c.seq, job: job, done: make(chan struct{}), notBefore: job.NotBefore}
	c.pending = append(c.pending, t)
	sort.SliceStable(c.pending, func(i, j int) bool {
		if c.pending[i].job.Priority != c.pending[j].job.Priority {
			return c.pending[i].job.Priority > c.pending[j].job.Priority
		}
		return c.pending[i].seq < c.pending[j].seq
	})
	c.dispatchLocked()
	return t, nil
}

// dispatchLocked starts every queued job admission control allows, in
// priority order. Jobs whose source or (placed) destination is saturated are
// skipped, not blocked on — a stalled high-priority job never starves an
// admissible lower-priority one on other hosts.
func (c *Cluster) dispatchLocked() {
	kept := c.pending[:0]
	for _, t := range c.pending {
		if t.State() != JobQueued {
			continue // canceled concurrently
		}
		if !c.admitLocked(t) {
			kept = append(kept, t)
			continue
		}
	}
	c.pending = kept
}

// Dispatch re-runs admission control over the queue immediately. The
// scheduler calls it on every submit, completion, and deferral expiry;
// exporting it lets control loops (and tests driving a synthetic
// Options.Now) force re-evaluation after time or load they control has
// moved.
func (c *Cluster) Dispatch() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dispatchLocked()
}

// deferredLocked reports whether t must keep waiting for its earliest-start
// time. On the first admission attempt of a low/normal-priority job with
// Forecast on, it also decides — once — whether to stamp a predicted-trough
// deferral onto the ticket (forecast.Model.DeferUntil). A deferred ticket
// arms a one-shot timer to re-dispatch when its time comes.
func (c *Cluster) deferredLocked(t *Ticket) bool {
	now := c.opts.Now()
	t.mu.Lock()
	if !t.deferEval {
		t.deferEval = true
		if t.notBefore.IsZero() && c.opts.Forecast && t.job.Priority <= PriorityNormal {
			if until, ok := c.troughLocked(t.job.Domain, now); ok {
				t.notBefore = until
			}
		}
	}
	nb := t.notBefore
	armed := t.wakeArmed
	if !nb.IsZero() && now.Before(nb) && !armed {
		t.wakeArmed = true
	}
	t.mu.Unlock()
	if nb.IsZero() || !now.Before(nb) {
		return false
	}
	if !armed {
		time.AfterFunc(nb.Sub(now), c.Dispatch)
	}
	return true
}

// troughLocked asks the domain's forecast model whether now is a bad time
// to migrate, returning the predicted trough time when deferral is worth it.
func (c *Cluster) troughLocked(domain string, now time.Time) (time.Time, bool) {
	if mdl, ok := c.models[domain]; ok {
		if until, ok := mdl.DeferUntil(now.Sub(c.start)); ok {
			return c.start.Add(until), true
		}
	}
	return time.Time{}, false
}

// admitLocked starts t if admission control allows, reporting whether it
// left the queue.
func (c *Cluster) admitLocked(t *Ticket) bool {
	if c.deferredLocked(t) {
		return false
	}
	if c.running >= c.opts.MaxTotal {
		return false
	}
	// Bandwidth admission: never start a migration that would dilute the
	// per-migration share below the configured floor. Read the live budget,
	// not Options — out-of-band Joins count too.
	if c.opts.MinShare > 0 {
		if total := c.budget.Total(); total != clock.Unlimited &&
			total/int64(c.budget.Active()+1) < c.opts.MinShare {
			return false
		}
	}
	src, ok := c.members[t.job.From]
	if !ok || !c.aliveLocked(src) {
		return false
	}
	if src.runningIn+src.runningOut >= c.opts.MaxPerHost {
		return false
	}
	var dst *member
	if t.job.To != "" {
		dst = c.members[t.job.To]
		if dst == nil || !c.aliveLocked(dst) ||
			dst.runningIn+dst.runningOut >= c.opts.MaxPerHost {
			return false
		}
		// Concurrency pressure is transient (defer above); a pinned
		// destination out of domain capacity is not — fail the job rather
		// than park it forever or overfill the host past its contract.
		if dst.capacity-dst.load.Domains-dst.runningIn <= 0 {
			return c.failQueuedLocked(t, fmt.Errorf(
				"cluster: pinned destination %q is at capacity (%d domains)", dst.name, dst.load.Domains))
		}
	} else {
		var err error
		if dst, err = c.placeLocked(t.job.Domain, t.job.From, nil); err != nil {
			return false // no destination right now; retry at next dispatch
		}
	}

	// Claim the ticket: Cancel may have flipped it since the queue scan
	// (it takes only t.mu), and a canceled ticket must neither run nor have
	// its closed done channel closed again.
	t.mu.Lock()
	if t.state != JobQueued {
		t.mu.Unlock()
		return true // leave the queue without running
	}
	t.state = JobRunning
	t.target = dst.name
	t.mu.Unlock()

	src.runningOut++
	dst.runningIn++
	c.running++
	// Reserve the bandwidth share at admission, not when the job goroutine
	// gets scheduled, so the MinShare check above always sees every
	// already-admitted migration in Budget().Active().
	leave := c.budget.Join()
	go c.runJob(t, src.machine, dst.machine, leave)
	return true
}

// failQueuedLocked moves a still-queued ticket straight to JobFailed (a
// permanent admission rejection), reporting whether it left the queue.
func (c *Cluster) failQueuedLocked(t *Ticket, err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != JobQueued {
		return true // canceled concurrently; drop either way
	}
	t.state = JobFailed
	t.err = err
	close(t.done)
	return true
}

// jobConfig builds the source-side migration config for t: the job override
// or BaseConfig, with a fresh inner policy from PolicyFactory when set, all
// wrapped in the shared-budget decorator. PolicyFactory wins over a bare
// Policy even when both are set: concurrent jobs must never share one
// stateful policy instance, and only the factory can mint a fresh one per
// migration. A bare Policy is used as-is and therefore must be stateless.
func (c *Cluster) jobConfig(t *Ticket) core.Config {
	cfg := c.opts.BaseConfig
	if t.job.Config != nil {
		cfg = *t.job.Config
	}
	inner := cfg.Policy
	if c.opts.PolicyFactory != nil {
		inner = c.opts.PolicyFactory()
	}
	cfg.Policy = &core.BudgetPolicy{Inner: inner, Budget: c.budget}
	return cfg
}

// runJob drives one admitted migration end to end: optional pre-sync, then
// MigrateOut against a dedicated listener served by the destination machine.
// leave releases the budget share admitLocked reserved; it must run BEFORE
// finishJob's re-dispatch or a MinShare-deferred job would still see this
// migration holding a share and never start (leave is idempotent, so the
// deferred call is just a safety net for panics).
func (c *Cluster) runJob(t *Ticket, src, dst *hostd.Machine, leave func()) {
	cfg := c.jobConfig(t)
	defer leave()

	if t.job.PreSync {
		sr, err := c.preSync(t, src, dst, cfg)
		t.mu.Lock()
		t.sync, t.syncE = sr, err
		t.mu.Unlock()
	}

	// Swarm fan-out: start sidecar serve sessions on nominated peers; their
	// addresses in the source config allow them in the announce. With no
	// willing peers the migration runs exactly as before. Options.Swarm is
	// the only switch: peers a job's own config names are dropped.
	cfg.SwarmPeers = nil
	if c.opts.Swarm && cfg.Dedup {
		var stopPeers func()
		cfg.SwarmPeers, stopPeers = c.startSwarmPeers(t)
		defer stopPeers()
	}

	l, err := c.opts.Listen()
	if err != nil {
		leave()
		c.finishJob(t, nil, fmt.Errorf("cluster: listen: %w", err))
		return
	}
	destErr := make(chan error, 1)
	go func() {
		// Local-only knobs ride along; the stream count arrives in the
		// announce, and the engine follows compression, dedup and delta from
		// the wire. Swarm peer addresses are local to the destination: it
		// engages them only when the announce carries the swarm flag.
		dcfg := core.Config{
			Clock: cfg.Clock, Workers: cfg.Workers, MaxExtentBlocks: cfg.MaxExtentBlocks,
			SwarmPeers: cfg.SwarmPeers,
		}
		_, err := dst.ServeOne(l, dcfg)
		destErr <- err
	}()
	rep, err := src.MigrateOut(t.job.Domain, dst.Name, l.Addr().String(), cfg)
	// Close the listener before collecting the destination: if the source
	// died without ever dialing (or while the destination is parked waiting
	// for a reconnect that cannot come), the accept path must be unblocked.
	l.Close()
	derr := <-destErr
	if err == nil && derr != nil {
		err = fmt.Errorf("cluster: destination %s: %w", dst.Name, derr)
	}
	leave()
	c.finishJob(t, rep, err)
}

// preSync runs the job's incremental pre-sync leg on its own listener.
func (c *Cluster) preSync(t *Ticket, src, dst *hostd.Machine, cfg core.Config) (*hostd.SyncReport, error) {
	l, err := c.opts.Listen()
	if err != nil {
		return nil, fmt.Errorf("cluster: presync listen: %w", err)
	}
	destErr := make(chan error, 1)
	go func() {
		_, err := dst.ServeSync(l)
		destErr <- err
	}()
	sr, err := src.SyncOut(t.job.Domain, dst.Name, l.Addr().String(), cfg)
	l.Close() // unblock the acceptor when the source never dialed
	derr := <-destErr
	if err == nil && sr != nil && sr.Blocks == 0 {
		return sr, nil // nothing diverged: no connection was opened
	}
	if err == nil && derr != nil {
		err = derr
	}
	return sr, err
}

// finishJob releases t's reservations, refreshes both endpoints' loads,
// records the outcome, and re-dispatches the queue.
func (c *Cluster) finishJob(t *Ticket, rep *metrics.Report, err error) {
	c.mu.Lock()
	if src := c.members[t.job.From]; src != nil {
		src.runningOut--
		c.heartbeatLocked(src)
	}
	if dst := c.members[t.Target()]; dst != nil {
		dst.runningIn--
		c.heartbeatLocked(dst)
	}
	c.running--
	c.mu.Unlock()

	t.mu.Lock()
	t.report = rep
	t.err = err
	if err != nil {
		t.state = JobFailed
	} else {
		t.state = JobDone
	}
	close(t.done)
	t.mu.Unlock()

	c.mu.Lock()
	c.dispatchLocked()
	c.mu.Unlock()
}
