package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bbmig/internal/blockdev"
	"bbmig/internal/hostd"
	"bbmig/internal/workload"
)

// stressFleet builds nHosts machines and nDomains tiny domains packed onto
// the first two hosts — the worst-case imbalance the autopilot must close.
func stressFleet(t *testing.T, c *Cluster, nHosts, nDomains int) []*hostd.Machine {
	t.Helper()
	var ms []*hostd.Machine
	for i := 0; i < nHosts; i++ {
		m := hostd.NewMachine(fmt.Sprintf("host%d", i))
		if err := c.Register(m, MemberOptions{Capacity: nDomains}); err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	buf := make([]byte, blockdev.BlockSize)
	for i := 0; i < nDomains; i++ {
		m := ms[i%2]
		d, err := m.CreateDomain(fmt.Sprintf("vm%03d", i), 64, 8, workload.Web, int64(i+1), false)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 4; b++ {
			workload.FillBlock(buf, b, 3)
			if err := d.Submit(blockdev.Request{Op: blockdev.Write, Block: b, Domain: d.VM().DomainID, Data: buf}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ms
}

// TestAutopilotStress is the loop's concurrency gauntlet (run it with
// -race): a 200-domain fleet packed onto two of eight hosts, with heartbeat
// hammers, a concurrent drain + undrain, and manual submissions racing the
// autopilot. It must converge to spread <= 1 with no deadlock, every ticket
// terminal, and the shared budget drained back to zero active shares.
func TestAutopilotStress(t *testing.T) {
	const nHosts, nDomains = 8, 200
	c := New(Options{
		GlobalBandwidth: 512 << 20,
		MaxPerHost:      4,
		MaxTotal:        8,
		Forecast:        true,
	})
	ms := stressFleet(t, c, nHosts, nDomains)

	ap := c.StartAutopilot(AutopilotOptions{Interval: 10 * time.Millisecond, MaxMovesPerCycle: 8})

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Heartbeat hammers: the observation path races the scheduler's own
	// finish-time heartbeats and the autopilot's HeartbeatAll.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Heartbeat(fmt.Sprintf("host%d", rng.Intn(nHosts))); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(int64(g))
	}

	// A drain races the autopilot: empty host2.
	wg.Add(1)
	drainErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		time.Sleep(50 * time.Millisecond)
		_, err := c.Drain("host2", DrainOptions{})
		drainErr <- err
	}()

	// Manual submissions race the planner's snapshots: some will lose the
	// race to an autopilot move of the same domain and error — that is the
	// point; every ticket that was accepted must still settle.
	var tickets []*Ticket
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 25; i++ {
			time.Sleep(5 * time.Millisecond)
			name := fmt.Sprintf("vm%03d", rng.Intn(nDomains))
			for _, m := range ms {
				if _, hosted := m.Domain(name); hosted {
					if tk, err := c.Submit(Job{Domain: name, From: m.Name, Priority: PriorityNormal}); err == nil {
						tickets = append(tickets, tk)
					}
					break
				}
			}
		}
	}()

	// Wait for convergence: spread <= 1 over schedulable hosts.
	deadline := time.Now().Add(90 * time.Second)
	for {
		st := c.Status()
		lo, hi := 1<<30, 0
		for _, m := range st.Members {
			if m.Draining {
				continue
			}
			if m.Load.Domains < lo {
				lo = m.Load.Domains
			}
			if m.Load.Domains > hi {
				hi = m.Load.Domains
			}
		}
		if hi-lo <= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no convergence: spread %d after 90s; status %+v", hi-lo, st)
		}
		time.Sleep(20 * time.Millisecond)
	}

	close(stop)
	wg.Wait()
	if err := <-drainErr; err != nil {
		t.Fatalf("drain leg: %v", err)
	}
	ap.Stop() // blocks until every autopilot move settles
	for _, tk := range tickets {
		select {
		case <-tk.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("manual ticket for %q stuck in state %v", tk.Job().Domain, tk.State())
		}
	}

	// Budget integrity: every Join has left; the per-migration share is
	// back to the whole pool.
	if got := c.Budget().Active(); got != 0 {
		t.Fatalf("budget leak: %d active shares after quiescence", got)
	}
	if share, total := c.Budget().Share(), c.Budget().Total(); share != total {
		t.Fatalf("budget share %d != total %d with nothing in flight", share, total)
	}

	// No domain lost or duplicated across the fleet.
	seen := make(map[string]string, nDomains)
	for _, m := range ms {
		for _, d := range m.Domains() {
			if prev, dup := seen[d]; dup {
				t.Fatalf("domain %s on both %s and %s", d, prev, m.Name)
			}
			seen[d] = m.Name
		}
	}
	if len(seen) != nDomains {
		t.Fatalf("fleet holds %d domains, want %d", len(seen), nDomains)
	}

	st := ap.Stats()
	if st.Completed == 0 {
		t.Fatalf("autopilot completed no moves: %+v", st)
	}
	if st.InFlight != 0 {
		t.Fatalf("autopilot reports %d in-flight after Stop: %+v", st.InFlight, st)
	}
}

// TestTroughDeferral drives the forecast-fed admission path on a synthetic
// clock: a domain with a square-wave write rate submits a migration mid-high
// phase and must be parked on a NotBefore in the predicted trough, while a
// high-priority job sails through immediately.
func TestTroughDeferral(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	fakeNow := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	c := New(Options{
		Forecast: true,
		Now:      fakeNow,
	})
	a := hostd.NewMachine("hostA")
	b := hostd.NewMachine("hostB")
	if err := c.Register(a, MemberOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(b, MemberOptions{}); err != nil {
		t.Fatal(err)
	}
	d, err := a.CreateDomain("vmA", tBlocks, tPages, workload.Web, 1, false)
	if err != nil {
		t.Fatal(err)
	}

	// Square wave: 16 beats of 30 s per period (8 min), writes only in the
	// first half. Six periods of history, ending mid-high-phase.
	const beat = 30 * time.Second
	buf := make([]byte, blockdev.BlockSize)
	writeBurst := func(n int) {
		for i := 0; i < n; i++ {
			workload.FillBlock(buf, i%tBlocks, 5)
			if err := d.Submit(blockdev.Request{Op: blockdev.Write, Block: i % tBlocks, Domain: d.VM().DomainID, Data: buf}); err != nil {
				t.Fatal(err)
			}
		}
	}
	beats := 6*16 + 4 // six periods, then 4 beats into the high phase
	for i := 0; i < beats; i++ {
		if (i%16)/8 == 0 {
			writeBurst(60) // high phase: 2 blocks/s
		}
		advance(beat)
		if _, err := c.Heartbeat("hostA"); err != nil {
			t.Fatal(err)
		}
	}

	mdl, ok := c.DomainModel("vmA")
	if !ok {
		t.Fatal("no forecast model for vmA")
	}
	if p, ok := mdl.Period(); !ok || p < 6*time.Minute || p > 10*time.Minute {
		t.Fatalf("period = %v (ok=%v), want ~8m", p, ok)
	}

	// Mid-high-phase submit: must be deferred into the coming trough.
	tk, err := c.Submit(Job{Domain: "vmA", From: "hostA", Priority: PriorityNormal})
	if err != nil {
		t.Fatal(err)
	}
	if st := tk.State(); st != JobQueued {
		t.Fatalf("mid-high-phase job state = %v, want queued on a trough deferral", st)
	}
	nb := tk.NotBefore()
	if nb.IsZero() || !nb.After(fakeNow()) {
		t.Fatalf("NotBefore = %v, want a future trough (now %v)", nb, fakeNow())
	}
	if wait := nb.Sub(fakeNow()); wait > 8*time.Minute {
		t.Fatalf("deferral %v exceeds one period", wait)
	}
	if st := c.Status(); st.Deferred != 1 {
		t.Fatalf("Status.Deferred = %d, want 1", st.Deferred)
	}

	// Time reaches the trough: the job dispatches and completes.
	advance(nb.Sub(fakeNow()) + time.Second)
	c.Dispatch()
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if tk.Target() != "hostB" {
		t.Fatalf("vmA landed on %q, want hostB", tk.Target())
	}

	// High-priority work is never trough-deferred: move it back during the
	// next high phase.
	advance(8 * time.Minute) // arbitrary; rebuild phase by heartbeating writes
	for i := 0; i < 20; i++ {
		advance(beat)
		if _, err := c.Heartbeat("hostB"); err != nil {
			t.Fatal(err)
		}
	}
	tk2, err := c.Submit(Job{Domain: "vmA", From: "hostB", Priority: PriorityHigh})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk2.Wait(); err != nil {
		t.Fatal(err)
	}
	if !tk2.NotBefore().IsZero() {
		t.Fatalf("high-priority job was trough-deferred to %v", tk2.NotBefore())
	}
}

// TestAutopilotNoPingPong is the regression for the unpinned-move livelock.
// Six domains start on host0 and a first wave leaves the fleet 2/3/1 with a
// retained copy of every moved domain behind it. The planner's next move is
// host1 -> host2, but dispatch-time placement scores a retained copy above
// two domains of headroom: left unpinned, the move is pulled back to host0,
// the one after it back to host1, one migration per cycle forever. Cycles
// are driven by hand, each settled before the next plan, so the outcome is
// deterministic.
func TestAutopilotNoPingPong(t *testing.T) {
	c := New(Options{})
	var ms []*hostd.Machine
	for i := 0; i < 3; i++ {
		m := hostd.NewMachine(fmt.Sprintf("host%d", i))
		if err := c.Register(m, MemberOptions{Capacity: 8}); err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	for i := 0; i < 6; i++ {
		if _, err := ms[0].CreateDomain(fmt.Sprintf("vm%02d", i), 64, 8, workload.Web, int64(i+1), false); err != nil {
			t.Fatal(err)
		}
	}
	for i, to := range []string{"host1", "host1", "host1", "host2"} {
		tk, err := c.Submit(Job{Domain: fmt.Sprintf("vm%02d", i), From: "host0", To: to})
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	a := &Autopilot{
		c:        c,
		opts:     AutopilotOptions{MaxMovesPerCycle: 1},
		inflight: make(map[string]*Ticket),
	}
	even := func() bool {
		for _, m := range ms {
			if len(m.Domains()) != 2 {
				return false
			}
		}
		return true
	}
	const minMoves = 1 // 2/3/1 -> 2/2/2
	for cycle := 0; cycle < 8 && !even(); cycle++ {
		a.cycle()
		a.mu.Lock()
		wave := make([]*Ticket, 0, len(a.inflight))
		for _, tk := range a.inflight {
			wave = append(wave, tk)
		}
		a.mu.Unlock()
		for _, tk := range wave {
			tk.Wait() // a failed move is re-planned; only the totals matter
		}
	}
	st := a.Stats()
	if !even() {
		t.Fatalf("fleet not 2/2/2 (%d/%d/%d) after %d cycles: %+v",
			len(ms[0].Domains()), len(ms[1].Domains()), len(ms[2].Domains()), st.Cycles, st)
	}
	if st.Submitted > 2*minMoves {
		t.Fatalf("autopilot submitted %d moves to even a fleet that needs %d: %+v", st.Submitted, minMoves, st)
	}
}
