package cluster

import (
	"testing"
	"time"

	"bbmig/internal/core"
	"bbmig/internal/hostd"
)

// machinesByName indexes a fleet for target-landing assertions.
func machinesByName(ms []*hostd.Machine) map[string]*hostd.Machine {
	byName := make(map[string]*hostd.Machine, len(ms))
	for _, m := range ms {
		byName[m.Name] = m
	}
	return byName
}

// TestRebalanceReportsLandedTargets pins the fix for reading a ticket's
// target before waiting on it. With the fleet cap at one concurrent
// migration, every move after the first is still queued — destination
// unresolved — while the first runs, so a report taken at submit time would
// name no target at all. Every successful move must name the host the
// domain actually landed on.
func TestRebalanceReportsLandedTargets(t *testing.T) {
	c := New(Options{MaxTotal: 1})
	ms := newFleet(t, c, 3, 8)
	for _, d := range []string{"d1", "d2", "d3", "d4", "d5", "d6"} {
		addDomain(t, ms[0], d, 8)
	}
	res, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Moves) < 2 {
		t.Fatalf("rebalance planned %d moves, want at least 2 so one is queued behind the cap", len(res.Moves))
	}
	byName := machinesByName(ms)
	for _, mv := range res.Moves {
		if mv.Err != nil {
			t.Fatalf("move %s failed: %v", mv.Domain, mv.Err)
		}
		if mv.Target == "" {
			t.Fatalf("move %s reports no target", mv.Domain)
		}
		m := byName[mv.Target]
		if m == nil {
			t.Fatalf("move %s reports unknown target %q", mv.Domain, mv.Target)
		}
		if _, ok := m.Domain(mv.Domain); !ok {
			t.Fatalf("move %s reports target %s, but the domain is not hosted there", mv.Domain, mv.Target)
		}
	}
}

// waitState polls until the ticket reaches the wanted state.
func waitState(t *testing.T, tk *Ticket, want JobState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tk.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("ticket stuck in %v, want %v", tk.State(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitPending polls until the scheduler queue holds a job for the domain.
func waitPending(t *testing.T, c *Cluster, domain string) *Ticket {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		for _, p := range c.pending {
			if p.job.Domain == domain {
				c.mu.Unlock()
				return p
			}
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("no queued job for %q", domain)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainReplacesCanceledMove exercises the drain re-place path for a move
// that dies before dispatch — the case where the failed attempt has no
// target and the re-place exclude list must not ship an empty name. The
// only fleet-wide slot is held by a frozen migration so the drain's move
// sits in the queue, where an operator cancel kills it target-less; the
// drain must then re-place and land the domain, reporting two attempts and
// the real destination.
func TestDrainReplacesCanceledMove(t *testing.T) {
	c := New(Options{MaxTotal: 1, MaxPerHost: 4})
	ms := newFleet(t, c, 3, 8)
	addDomain(t, ms[0], "evac", 8)
	addDomain(t, ms[1], "blocker", 8)

	gate := make(chan struct{})
	hold := core.Config{OnFreeze: func() { <-gate }}
	tb, err := c.Submit(Job{Domain: "blocker", From: "host1", To: "host2", Config: &hold})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, tb, JobRunning)

	type out struct {
		res *DrainResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := c.Drain("host0", DrainOptions{})
		done <- out{res, err}
	}()

	tk := waitPending(t, c, "evac")
	if !tk.Cancel() {
		t.Fatal("could not cancel the queued evacuation")
	}
	if tk.Target() != "" {
		t.Fatalf("canceled-before-dispatch move already has target %q", tk.Target())
	}
	close(gate)

	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if err := tb.Wait(); err != nil {
		t.Fatalf("blocker migration: %v", err)
	}
	if len(o.res.Moves) != 1 {
		t.Fatalf("drain recorded %d moves, want 1", len(o.res.Moves))
	}
	mv := o.res.Moves[0]
	if mv.Err != nil {
		t.Fatalf("re-placed move failed: %v", mv.Err)
	}
	if mv.Attempts != 2 {
		t.Fatalf("move took %d attempts, want 2 (cancel, then re-place)", mv.Attempts)
	}
	if mv.Target == "" {
		t.Fatal("re-placed move reports no target")
	}
	m := machinesByName(ms)[mv.Target]
	if m == nil {
		t.Fatalf("re-placed move reports unknown target %q", mv.Target)
	}
	if _, ok := m.Domain("evac"); !ok {
		t.Fatalf("evac not hosted on reported target %s", mv.Target)
	}
}
