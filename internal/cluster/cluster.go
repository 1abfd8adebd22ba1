// Package cluster is the fleet orchestrator above hostd: it manages a set of
// registered hostd.Machines and decides which domain moves where, when, and
// how fast — the layer the paper frames block-bitmap migration as a building
// block for (evacuating a host for planned maintenance, rebalancing load).
//
// Three pieces compose it:
//
//   - a placement engine (PlaceDomain) scoring destination hosts by free
//     capacity, current migration load, and retained content;
//   - an admission-controlled scheduler (Submit) with a global pre-copy
//     bandwidth budget shared live via core.RateBudget (Config.Budget),
//     per-host and fleet-wide concurrency caps, priority queues, and
//     queued-job cancellation;
//   - fleet operations built on both: Drain evacuates every domain off a
//     host (optionally pre-syncing each domain's divergence so the final
//     cutover ships only the recent write set — the paper's IM applied to
//     planned maintenance), and Rebalance evens domain counts.
//
// Each migration runs on its own loopback listener pair of
// hostd.MigrateOut/ServeOne, so concurrent migrations never share an accept
// queue; the shared resource is the bandwidth budget, re-split across
// in-flight migrations on every paced frame.
package cluster

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"bbmig/internal/core"
	"bbmig/internal/forecast"
	"bbmig/internal/hostd"
)

// Defaults for Options fields left zero.
const (
	// DefaultMaxPerHost caps concurrent migrations (inbound plus outbound)
	// per host: two, so one machine is never both sides of its whole fleet's
	// churn.
	DefaultMaxPerHost = 2
	// DefaultMaxTotal caps concurrent migrations fleet-wide.
	DefaultMaxTotal = 4
	// DefaultCapacity is the assumed per-host domain capacity when a member
	// registers without one.
	DefaultCapacity = 8
	// DefaultSwarmPeers caps how many peer machines serve sidecar swarm
	// fetches for one migration when Options.Swarm is on and SwarmPeers is
	// zero: three peers, enough to out-aggregate a single source uplink
	// without fanning every migration across the whole fleet.
	DefaultSwarmPeers = 3
)

// Options configures a Cluster. The zero value is usable: unlimited
// bandwidth, default caps.
type Options struct {
	// GlobalBandwidth is the fleet-wide pre-copy budget in bytes/second,
	// shared live among in-flight migrations (each one's pacing becomes
	// budget/active, re-read per frame). Zero means unlimited.
	GlobalBandwidth int64

	// MaxPerHost caps concurrent migrations (inbound + outbound) per host;
	// zero selects DefaultMaxPerHost.
	MaxPerHost int

	// MaxTotal caps concurrent migrations fleet-wide; zero selects
	// DefaultMaxTotal.
	MaxTotal int

	// BaseConfig is the per-migration core.Config template. The scheduler
	// sets its Budget to the cluster's global budget.
	BaseConfig core.Config

	// Swarm, when true alongside a dedup'd BaseConfig (or job config), fans
	// each migration's want-set across peer machines: the scheduler
	// nominates up to SwarmPeers members by placement's content-overlap
	// data, starts a sidecar swarm-serve session on each (paced from the
	// shared budget), and hands their addresses to both endpoints. Peers
	// that hold nothing relevant just answer misses — the source's literal
	// fallback covers them — so nomination optimizes bandwidth, never
	// correctness.
	Swarm bool

	// SwarmPeers caps the nominated peers per migration; zero selects
	// DefaultSwarmPeers.
	SwarmPeers int

	// Forecast enables per-domain dirty-rate models: every heartbeat's
	// DomainWrites counters become rate observations, and admission defers
	// low/normal-priority jobs into predicted write-rate troughs
	// (forecast.Model.DeferUntil). Evacuate- and high-priority jobs are
	// never deferred — maintenance outranks interference avoidance.
	Forecast bool

	// listen opens the listener a scheduled migration's destination accepts
	// on; the source dials its address. Nil selects loopback TCP
	// ("127.0.0.1:0"). Tests interpose fault-injecting proxies here.
	listen func() (net.Listener, error)

	// now is the wall-clock source for heartbeats, deferrals and makespan
	// accounting; nil selects time.Now. Tests drive a synthetic clock here.
	now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.MaxPerHost <= 0 {
		o.MaxPerHost = DefaultMaxPerHost
	}
	if o.MaxTotal <= 0 {
		o.MaxTotal = DefaultMaxTotal
	}
	if o.SwarmPeers <= 0 {
		o.SwarmPeers = DefaultSwarmPeers
	}
	if o.listen == nil {
		o.listen = func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// member is one registered host and the orchestrator's view of it.
type member struct {
	name     string
	machine  *hostd.Machine
	capacity int
	draining bool
	load     hostd.Load

	// scheduler reservations: migrations this cluster is running right now.
	runningIn, runningOut int
}

// Cluster orchestrates migrations across registered machines.
type Cluster struct {
	opts   Options
	budget *core.RateBudget
	start  time.Time // timeline origin for forecast observations

	mu      sync.Mutex
	members map[string]*member
	pending []*Ticket // priority-ordered queue (see scheduler.go)
	running int
	seq     uint64
	models  map[string]*forecast.Model // per-domain dirty-rate models (Forecast on)
}

// New returns an empty cluster.
func New(opts Options) *Cluster {
	opts = opts.withDefaults()
	return &Cluster{
		opts:    opts,
		budget:  core.NewRateBudget(opts.GlobalBandwidth),
		start:   opts.now(),
		members: make(map[string]*member),
		models:  make(map[string]*forecast.Model),
	}
}

// Budget exposes the cluster's shared bandwidth allocator, so out-of-band
// migrations share the same pool the scheduler draws from.
func (c *Cluster) Budget() *core.RateBudget { return c.budget }

// MemberOptions parameterizes one Register call.
type MemberOptions struct {
	// Capacity is the most domains this host should carry; zero selects
	// DefaultCapacity.
	Capacity int
}

// Register adds a machine to the fleet and records its first heartbeat. The
// machine's name must be unique within the cluster.
func (c *Cluster) Register(m *hostd.Machine, opt MemberOptions) error {
	if opt.Capacity <= 0 {
		opt.Capacity = DefaultCapacity
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.members[m.Name]; dup {
		return fmt.Errorf("cluster: member %q already registered", m.Name)
	}
	mb := &member{name: m.Name, machine: m, capacity: opt.Capacity}
	c.heartbeatLocked(mb)
	c.members[m.Name] = mb
	return nil
}

// Heartbeat refreshes a member's load report, returning the load. The
// scheduler also refreshes both endpoints of every migration it completes.
func (c *Cluster) Heartbeat(name string) (hostd.Load, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[name]
	if !ok {
		return hostd.Load{}, fmt.Errorf("cluster: unknown member %q", name)
	}
	c.heartbeatLocked(m)
	return m.load, nil
}

// heartbeatLocked refreshes one member under c.mu and, with Forecast on,
// feeds the per-domain dirty-rate models from the load report's cumulative
// write counters.
func (c *Cluster) heartbeatLocked(m *member) {
	m.load = m.machine.Load()
	if !c.opts.Forecast {
		return
	}
	at := c.opts.now().Sub(c.start)
	for name, writes := range m.load.DomainWrites {
		mdl := c.models[name]
		if mdl == nil {
			mdl = forecast.NewModel()
			c.models[name] = mdl
		}
		mdl.ObserveCount(at, writes)
	}
}

// HeartbeatAll refreshes every member's load report (and forecast feed) in
// one pass — the autopilot's per-cycle observation step.
func (c *Cluster) HeartbeatAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.members {
		c.heartbeatLocked(m)
	}
}

// DomainModel returns the named domain's dirty-rate model, if Forecast is
// on and at least one heartbeat has reported the domain. The model is live
// and safe for concurrent use.
func (c *Cluster) DomainModel(domain string) (*forecast.Model, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.models[domain]
	return m, ok
}

// MemberStatus is one member's row in a Status report.
type MemberStatus struct {
	// Name is the machine name.
	Name string
	// Capacity is the registered domain capacity.
	Capacity int
	// Load is the member's last-heartbeat load report.
	Load hostd.Load
	// RunningIn and RunningOut count migrations this cluster is running
	// into and out of the host right now.
	RunningIn, RunningOut int
	// Draining marks a host excluded from placement: a Drain is in progress
	// or has completed.
	Draining bool
}

// Status is a point-in-time snapshot of the whole cluster.
type Status struct {
	// Members lists every registered host, sorted by name.
	Members []MemberStatus
	// Queued and Running count scheduler jobs in each state.
	Queued, Running int
	// Deferred counts the queued jobs currently held for a NotBefore time
	// (explicit or trough-stamped); they are included in Queued.
	Deferred int
	// ShareBps is the current per-migration bandwidth share
	// (core.Unlimited when no budget is set).
	ShareBps int64
}

// Status reports the cluster's current membership, queue depth, and budget
// share. Loads are as of each member's last heartbeat.
func (c *Cluster) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{Running: c.running, ShareBps: c.budget.Share()}
	now := c.opts.now()
	for _, t := range c.pending {
		if t.State() == JobQueued {
			st.Queued++
			if nb := t.NotBefore(); !nb.IsZero() && now.Before(nb) {
				st.Deferred++
			}
		}
	}
	names := make([]string, 0, len(c.members))
	for n := range c.members {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := c.members[n]
		st.Members = append(st.Members, MemberStatus{
			Name: m.name, Capacity: m.capacity, Load: m.load,
			RunningIn: m.runningIn, RunningOut: m.runningOut,
			Draining: m.draining,
		})
	}
	return st
}
