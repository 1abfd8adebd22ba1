package cluster

import (
	"fmt"
	"sort"
	"time"

	"bbmig/internal/hostd"
	"bbmig/internal/metrics"
)

// DefaultDrainRetries is the per-migration reconnect budget a drain uses
// when DrainOptions.Retries is zero: planned maintenance should ride out
// link flaps via the resume path rather than strand a half-evacuated host.
const DefaultDrainRetries = 3

// DrainOptions parameterizes one evacuation.
type DrainOptions struct {
	// PreSync pushes each domain's divergence to its target before the live
	// migration, shrinking the cutover window (the paper's IM pre-sync for
	// planned maintenance). Targets that already hold an old copy of the
	// domain benefit most; first-visit targets receive a full background
	// sync while the guest keeps running.
	PreSync bool
	// Retries is each migration's resume budget (core.Config.MaxRetries);
	// zero selects DefaultDrainRetries, negative disables resumption.
	Retries int
}

// Move records one domain's evacuation outcome.
type Move struct {
	// Domain is the migrated guest; Target the host it landed on (the last
	// one attempted, when Err is set).
	Domain, Target string
	// Sync is the pre-sync summary, when DrainOptions.PreSync asked for one
	// and the job got far enough to run it.
	Sync *hostd.SyncReport
	// Report is the source-side migration report (nil when the move died
	// before the engine produced one).
	Report *metrics.Report
	// Attempts counts scheduler jobs spent on the domain (1 = first try).
	Attempts int
	// Err is the terminal error; nil means the domain evacuated.
	Err error
}

// DrainResult summarizes one evacuation.
type DrainResult struct {
	// Host is the drained member.
	Host string
	// Moves has one entry per domain that was hosted there, in name order.
	Moves []Move
	// Makespan is the wall time from drain start to the last move settling.
	Makespan time.Duration
}

// Failed returns the moves that did not complete.
func (r *DrainResult) Failed() []Move {
	var out []Move
	for _, m := range r.Moves {
		if m.Err != nil {
			out = append(out, m)
		}
	}
	return out
}

// Drain evacuates every domain off the named host: the host is marked
// draining (no placement onto it), one PriorityEvacuate job per domain is
// submitted with the resume budget of DrainOptions.Retries, and the call
// blocks until every move settles. A move whose migration fails is re-placed
// onto a different host and retried once; link flaps within a move are
// ridden out by the engine's resume path without surfacing here at all.
//
// The host stays draining afterwards: maintenance usually follows, and a
// drained host takes no further placements.
func (c *Cluster) Drain(host string, opts DrainOptions) (*DrainResult, error) {
	c.mu.Lock()
	mb, ok := c.members[host]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: unknown member %q", host)
	}
	mb.draining = true
	machine := mb.machine
	c.mu.Unlock()

	retries := opts.Retries
	if retries == 0 {
		retries = DefaultDrainRetries
	}
	if retries < 0 {
		retries = 0
	}
	cfg := c.opts.BaseConfig
	cfg.MaxRetries = retries

	domains := machine.Domains()
	sort.Strings(domains)
	start := c.opts.now()
	res := &DrainResult{Host: host}

	type inflight struct {
		domain string
		ticket *Ticket
	}
	var flights []inflight
	for _, d := range domains {
		t, err := c.Submit(Job{
			Domain: d, From: host, Priority: PriorityEvacuate,
			PreSync: opts.PreSync, Config: &cfg,
		})
		if err != nil {
			res.Moves = append(res.Moves, Move{Domain: d, Attempts: 0, Err: err})
			continue
		}
		flights = append(flights, inflight{domain: d, ticket: t})
	}

	for _, f := range flights {
		err := f.ticket.Wait()
		mv := Move{Domain: f.domain, Target: f.ticket.Target(), Report: f.ticket.Report(), Attempts: 1}
		mv.Sync, _ = f.ticket.SyncReport()
		mv.Err = err
		if err != nil {
			// Re-place away from the failed target and try once more. A move
			// that died before dispatch has no target yet, and excludes
			// nothing: no member is named "".
			if to, perr := c.PlaceDomain(f.domain, host, mv.Target); perr == nil {
				if t2, serr := c.Submit(Job{
					Domain: f.domain, From: host, To: to, Priority: PriorityEvacuate,
					PreSync: opts.PreSync, Config: &cfg,
				}); serr == nil {
					mv.Attempts++
					mv.Err = t2.Wait()
					mv.Target = t2.Target()
					if rep := t2.Report(); rep != nil {
						mv.Report = rep
					}
					if sr, _ := t2.SyncReport(); sr != nil {
						mv.Sync = sr
					}
				}
			}
		}
		res.Moves = append(res.Moves, mv)
	}
	res.Makespan = c.opts.now().Sub(start)
	return res, nil
}

// RebalanceResult summarizes one Rebalance pass.
type RebalanceResult struct {
	// Moves lists the migrations the pass ran, in submission order.
	Moves []Move
}

// planned is one spread-closing move a rebalance plan proposes.
type planned struct{ domain, from, to string }

// rebalancePlan heartbeats the schedulable members and greedily plans
// spread-≤1 moves against the fresh snapshot: while the spread between the
// most- and least-loaded eligible host exceeds one domain, ship one domain
// from the fullest host to the emptiest. Draining hosts neither give nor
// receive; skip lists domains not to plan (the autopilot's in-flight set).
// The plan is deterministic for a given snapshot: hosts tie-break by name,
// domains are claimed in name order.
func (c *Cluster) rebalancePlan(skip map[string]bool) []planned {
	// Plan against a consistent snapshot of fresh loads.
	c.mu.Lock()
	type hostCount struct {
		name    string
		machine *hostd.Machine
		count   int
	}
	var hosts []hostCount
	for _, m := range c.members {
		if m.draining {
			continue
		}
		c.heartbeatLocked(m)
		hosts = append(hosts, hostCount{m.name, m.machine, m.load.Domains})
	}
	c.mu.Unlock()
	if len(hosts) < 2 {
		return nil
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i].name < hosts[j].name })

	taken := make(map[string]int) // domains already claimed per source
	var plan []planned
	for {
		hi, lo := 0, 0
		for i := range hosts {
			if hosts[i].count > hosts[hi].count {
				hi = i
			}
			if hosts[i].count < hosts[lo].count {
				lo = i
			}
		}
		if hosts[hi].count-hosts[lo].count <= 1 {
			break
		}
		names := hosts[hi].machine.Domains()
		sort.Strings(names)
		claimed := false
		for taken[hosts[hi].name] < len(names) {
			d := names[taken[hosts[hi].name]]
			taken[hosts[hi].name]++
			if skip[d] {
				continue
			}
			plan = append(plan, planned{d, hosts[hi].name, hosts[lo].name})
			claimed = true
			break
		}
		if !claimed {
			break // nothing left to claim (loads moved under us, or all skipped)
		}
		hosts[hi].count--
		hosts[lo].count++
	}
	return plan
}

// Rebalance evens domain counts across schedulable members: while the
// spread between the most- and least-loaded eligible host exceeds one
// domain, it moves one domain from the fullest host to the emptiest, then
// waits for every submitted move. Draining hosts neither give nor receive.
func (c *Cluster) Rebalance() (*RebalanceResult, error) {
	plan := c.rebalancePlan(nil)

	res := &RebalanceResult{}
	var tickets []*Ticket
	for _, p := range plan {
		t, err := c.Submit(Job{Domain: p.domain, From: p.from, To: p.to, Priority: PriorityNormal})
		if err != nil {
			res.Moves = append(res.Moves, Move{Domain: p.domain, Target: p.to, Err: err})
			continue
		}
		tickets = append(tickets, t)
	}
	for _, t := range tickets {
		// Wait before reading the target: a move still queued at read time
		// has no resolved destination yet, and reporting the placement plan
		// instead of where the domain actually landed would lie whenever the
		// dispatcher re-placed it.
		mv := Move{Domain: t.Job().Domain, Attempts: 1}
		mv.Err = t.Wait()
		mv.Target = t.Target()
		mv.Report = t.Report()
		res.Moves = append(res.Moves, mv)
	}
	return res, nil
}
