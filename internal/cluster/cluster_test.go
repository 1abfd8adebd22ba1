package cluster

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"bbmig/internal/blockdev"
	"bbmig/internal/core"
	"bbmig/internal/hostd"
	"bbmig/internal/workload"
)

const (
	tBlocks = 512
	tPages  = 32
)

// newFleet builds n machines named host0..host(n-1), registered with cap.
func newFleet(t *testing.T, c *Cluster, n, capacity int) []*hostd.Machine {
	t.Helper()
	var ms []*hostd.Machine
	for i := 0; i < n; i++ {
		m := hostd.NewMachine("host" + string(rune('0'+i)))
		if err := c.Register(m, MemberOptions{Capacity: capacity}); err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// addDomain creates a workload-free domain and writes a recognizable
// pattern so migrated bytes are verifiable.
func addDomain(t *testing.T, m *hostd.Machine, name string, writes int) {
	t.Helper()
	d, err := m.CreateDomain(name, tBlocks, tPages, workload.Web, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockdev.BlockSize)
	for i := 0; i < writes; i++ {
		workload.FillBlock(buf, i, 7)
		if err := d.Submit(blockdev.Request{Op: blockdev.Write, Block: i, Domain: d.VM().DomainID, Data: buf}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPlacementScoring(t *testing.T) {
	c := New(Options{})
	ms := newFleet(t, c, 3, 4)
	// host0 is the source; host1 carries 3 domains, host2 one: host2 wins on
	// headroom.
	addDomain(t, ms[1], "a", 4)
	addDomain(t, ms[1], "b", 4)
	addDomain(t, ms[1], "c", 4)
	addDomain(t, ms[2], "d", 4)
	for _, m := range ms {
		if _, err := c.Heartbeat(m.Name); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.PlaceDomain("", "host0")
	if err != nil {
		t.Fatal(err)
	}
	if got != "host2" {
		t.Fatalf("placed on %s, want host2", got)
	}
	// Excluding host2 falls back to host1.
	if got, err = c.PlaceDomain("", "host0", "host2"); err != nil || got != "host1" {
		t.Fatalf("place with exclusion = %s, %v; want host1", got, err)
	}
	// A draining host is no candidate.
	c.mu.Lock()
	c.members["host2"].draining = true
	c.mu.Unlock()
	if got, err = c.PlaceDomain("", "host0"); err != nil || got != "host1" {
		t.Fatalf("place around draining host = %s, %v; want host1", got, err)
	}
	// Full hosts are no candidates: fill host1 to capacity.
	addDomain(t, ms[1], "e", 1)
	if _, err := c.Heartbeat("host1"); err != nil {
		t.Fatal(err)
	}
	if _, err = c.PlaceDomain("", "host0"); err == nil {
		t.Fatal("placement succeeded with every host full or draining")
	}
}

// TestPlacementContentOverlap pins the content-overlap weight: with
// otherwise-equal candidates, the host retaining the moving domain's disk
// wins placement (the move there is incremental and content-deduplicable),
// beating the lexicographic tiebreak that would otherwise pick the earlier
// name. Domain-less placement ignores the signal.
func TestPlacementContentOverlap(t *testing.T) {
	c := New(Options{})
	ms := newFleet(t, c, 3, 4)
	// host2 once hosted g and migrated it to host0, so host2 retains g's
	// disk; host1 is an equally empty cold candidate.
	addDomain(t, ms[2], "g", 8)
	tk, err := c.Submit(Job{Domain: "g", From: "host2", To: "host0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if _, err := c.Heartbeat(m.Name); err != nil {
			t.Fatal(err)
		}
	}
	if got := ms[2].Load().Retained; len(got) != 1 || got[0] != "g" {
		t.Fatalf("host2 retained = %v, want [g]", got)
	}
	if got, err := c.PlaceDomain("g", "host0"); err != nil || got != "host2" {
		t.Fatalf("PlaceDomain(g) = %s, %v; want host2 (retains g)", got, err)
	}
	if got, err := c.PlaceDomain("", "host0"); err != nil || got != "host1" {
		t.Fatalf("Place without domain = %s, %v; want host1 (lexicographic)", got, err)
	}
}

func TestPlacementStaleness(t *testing.T) {
	now := time.Unix(1000, 0)
	c := New(Options{
		HeartbeatTTL: time.Minute,
		Now:          func() time.Time { return now },
	})
	newFleet(t, c, 2, 4)
	if got, err := c.PlaceDomain("", "host0"); err != nil || got != "host1" {
		t.Fatalf("place = %s, %v", got, err)
	}
	now = now.Add(2 * time.Minute) // host1's heartbeat ages out
	if _, err := c.PlaceDomain("", "host0"); err == nil {
		t.Fatal("stale member still placeable")
	}
	if !c.Status().Members[1].Stale {
		t.Fatal("status does not mark host1 stale")
	}
	if _, err := c.Heartbeat("host1"); err != nil {
		t.Fatal(err)
	}
	if got, err := c.PlaceDomain("", "host0"); err != nil || got != "host1" {
		t.Fatalf("place after heartbeat = %s, %v", got, err)
	}
}

func TestSubmitMovesDomain(t *testing.T) {
	c := New(Options{})
	ms := newFleet(t, c, 2, 4)
	addDomain(t, ms[0], "guest", 64)
	ticket, err := c.Submit(Job{Domain: "guest", From: "host0", Priority: PriorityNormal})
	if err != nil {
		t.Fatal(err)
	}
	if err := ticket.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := ticket.State(); st != JobDone {
		t.Fatalf("state %v, want done", st)
	}
	if ticket.Target() != "host1" {
		t.Fatalf("landed on %s", ticket.Target())
	}
	if ticket.Report() == nil || ticket.Report().DiskIterations[0].Units != tBlocks {
		t.Fatalf("unexpected report %+v", ticket.Report())
	}
	if _, ok := ms[1].Domain("guest"); !ok {
		t.Fatal("guest not hosted on host1")
	}
	if _, ok := ms[0].Domain("guest"); ok {
		t.Fatal("guest still hosted on host0")
	}
	st := c.Status()
	if st.Running != 0 || st.Queued != 0 {
		t.Fatalf("status %+v after completion", st)
	}
	if st.Members[1].Load.Domains != 1 {
		t.Fatalf("host1 load %+v not refreshed", st.Members[1].Load)
	}
}

func TestPriorityOrderAndCancel(t *testing.T) {
	c := New(Options{MaxTotal: 1, MaxPerHost: 1})
	ms := newFleet(t, c, 2, 8)
	for _, d := range []string{"d1", "d2", "d3"} {
		addDomain(t, ms[0], d, 8)
	}
	// d1 starts immediately (queue empty); d2 queues at low priority, d3 at
	// evacuate priority and must run before d2.
	t1, err := c.Submit(Job{Domain: "d1", From: "host0", Priority: PriorityLow})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := c.Submit(Job{Domain: "d2", From: "host0", Priority: PriorityLow})
	if err != nil {
		t.Fatal(err)
	}
	t3, err := c.Submit(Job{Domain: "d3", From: "host0", Priority: PriorityEvacuate})
	if err != nil {
		t.Fatal(err)
	}
	if err := t3.Wait(); err != nil {
		t.Fatal(err)
	}
	// The evacuate job finished; the low-priority one behind it must still
	// be queued or just started — it cannot have finished first.
	if t2.State() == JobDone {
		t.Fatal("low-priority job overtook the evacuate job")
	}
	if err := t2.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Wait(); err != nil {
		t.Fatal(err)
	}

	// Cancellation: queue one more and cancel it before it can start.
	addDomain(t, ms[0], "d4", 8)
	addDomain(t, ms[0], "d5", 8)
	g1, err := c.Submit(Job{Domain: "d4", From: "host0"})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.Submit(Job{Domain: "d5", From: "host0"})
	if err != nil {
		t.Fatal(err)
	}
	if g2.State() == JobQueued {
		if !g2.Cancel() {
			t.Fatal("queued job refused cancellation")
		}
		if g2.State() != JobCanceled || g2.Err() == nil {
			t.Fatalf("canceled ticket state %v err %v", g2.State(), g2.Err())
		}
	}
	if err := g1.Wait(); err != nil {
		t.Fatal(err)
	}
	if g2.State() == JobCanceled {
		if _, ok := ms[0].Domain("d5"); !ok {
			t.Fatal("canceled job still migrated its domain")
		}
	}
}

func TestPinnedDestinationCapacity(t *testing.T) {
	c := New(Options{})
	a := hostd.NewMachine("hostA")
	b := hostd.NewMachine("hostB")
	if err := c.Register(a, MemberOptions{Capacity: 8}); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(b, MemberOptions{Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	addDomain(t, a, "d1", 8)
	addDomain(t, b, "full", 8)
	for _, n := range []string{"hostA", "hostB"} {
		if _, err := c.Heartbeat(n); err != nil {
			t.Fatal(err)
		}
	}
	// hostB is at its registered capacity: a job pinned to it must fail
	// fast instead of overfilling the host or parking forever.
	ticket, err := c.Submit(Job{Domain: "d1", From: "hostA", To: "hostB"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ticket.Wait(); err == nil {
		t.Fatal("job pinned to a full host was admitted")
	}
	if st := ticket.State(); st != JobFailed {
		t.Fatalf("ticket state %v, want failed", st)
	}
	if _, ok := a.Domain("d1"); !ok {
		t.Fatal("domain left the source despite the rejection")
	}
}

func TestMinShareAdmission(t *testing.T) {
	gate := make(chan struct{})
	c := New(Options{
		GlobalBandwidth: 100e6,
		MinShare:        60e6, // only one migration fits the floor
		MaxTotal:        4,
	})
	ms := newFleet(t, c, 3, 8)
	addDomain(t, ms[0], "d1", 8)
	addDomain(t, ms[0], "d2", 8)
	hold := core.Config{OnFreeze: func() { <-gate }}
	t1, err := c.Submit(Job{Domain: "d1", From: "host0", Config: &hold})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := c.Submit(Job{Domain: "d2", From: "host0"})
	if err != nil {
		t.Fatal(err)
	}
	if st := t1.State(); st != JobRunning {
		t.Fatalf("first job %v, want running", st)
	}
	if st := t2.State(); st != JobQueued {
		t.Fatalf("second job %v, want queued behind the bandwidth floor", st)
	}
	close(gate)
	if err := t1.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainEvacuatesHost(t *testing.T) {
	c := New(Options{MaxTotal: 2, MaxPerHost: 2})
	ms := newFleet(t, c, 4, 8)
	domains := []string{"d1", "d2", "d3", "d4"}
	for _, d := range domains {
		addDomain(t, ms[0], d, 32)
	}
	res, err := c.Drain("host0", DrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed()) != 0 {
		t.Fatalf("failed moves: %+v", res.Failed())
	}
	if len(res.Moves) != len(domains) {
		t.Fatalf("%d moves, want %d", len(res.Moves), len(domains))
	}
	if got := ms[0].Load().Domains; got != 0 {
		t.Fatalf("host0 still hosts %d domains", got)
	}
	targets := map[string]int{}
	for _, mv := range res.Moves {
		targets[mv.Target]++
		if mv.Target == "host0" {
			t.Fatal("a move landed back on the draining host")
		}
	}
	if len(targets) < 2 {
		t.Fatalf("evacuees all stacked on one host: %v", targets)
	}
	if res.Makespan <= 0 {
		t.Fatal("makespan not recorded")
	}
	// The drained host stays out of the placement pool.
	if to, err := c.PlaceDomain("", "host1"); err == nil && to == "host0" {
		t.Fatal("drained host still receives placements")
	}
}

func TestDrainPreSyncShrinksCutover(t *testing.T) {
	c := New(Options{})
	ms := newFleet(t, c, 2, 4)
	addDomain(t, ms[0], "guest", 200)
	res, err := c.Drain("host0", DrainOptions{PreSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed()) != 0 {
		t.Fatalf("failed moves: %+v", res.Failed())
	}
	mv := res.Moves[0]
	if mv.Sync == nil || mv.Sync.Blocks != tBlocks {
		t.Fatalf("pre-sync report %+v, want %d blocks", mv.Sync, tBlocks)
	}
	// Everything was pre-synced while the guest ran; the cutover migration's
	// first disk iteration ships only what diverged since — nothing here.
	if units := mv.Report.DiskIterations[0].Units; units != 0 {
		t.Fatalf("cutover first iteration sent %d blocks, want 0 after pre-sync", units)
	}
	if mv.Report.Scheme != "IM" {
		t.Fatalf("cutover scheme %q, want IM", mv.Report.Scheme)
	}
	// Destination actually holds the data.
	d, ok := ms[1].Domain("guest")
	if !ok {
		t.Fatal("guest not on host1")
	}
	buf := make([]byte, blockdev.BlockSize)
	want := make([]byte, blockdev.BlockSize)
	for i := 0; i < 200; i++ {
		workload.FillBlock(want, i, 7)
		if err := d.Disk().ReadBlock(i, buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != string(want) {
			t.Fatalf("block %d corrupted after pre-synced drain", i)
		}
	}
}

// proxiedListener makes a cluster migration dial through a fault-injecting
// proxy: Addr returns the proxy's address while Accept serves the real
// listener behind it.
type proxiedListener struct {
	net.Listener
	proxy *flakyProxy
}

func (p *proxiedListener) Addr() net.Addr { return p.proxy.l.Addr() }

func TestDrainSurvivesLinkFault(t *testing.T) {
	var proxies []*flakyProxy
	var mu sync.Mutex
	c := New(Options{
		Listen: func() (net.Listener, error) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			// Cut the first connection mid disk pre-copy; later connections
			// (the resume re-dial) pass through clean.
			p := newFlakyProxy(l.Addr().String(), int64(tBlocks)*blockdev.BlockSize/2)
			mu.Lock()
			proxies = append(proxies, p)
			mu.Unlock()
			return &proxiedListener{Listener: l, proxy: p}, nil
		},
	})
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range proxies {
			p.close()
		}
	}()
	ms := newFleet(t, c, 2, 4)
	addDomain(t, ms[0], "guest", 300)
	res, err := c.Drain("host0", DrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed()) != 0 {
		t.Fatalf("drain did not survive the link fault: %+v", res.Failed())
	}
	mv := res.Moves[0]
	if mv.Attempts != 1 {
		t.Fatalf("move took %d scheduler attempts; the resume path should have absorbed the fault", mv.Attempts)
	}
	if mv.Report == nil || mv.Report.Retries < 1 {
		t.Fatalf("report %+v records no resume retry", mv.Report)
	}
	if _, ok := ms[1].Domain("guest"); !ok {
		t.Fatal("guest not on host1 after faulted drain")
	}
}

func TestRebalance(t *testing.T) {
	c := New(Options{})
	ms := newFleet(t, c, 3, 8)
	for _, d := range []string{"d1", "d2", "d3", "d4", "d5", "d6"} {
		addDomain(t, ms[0], d, 8)
	}
	res, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	for _, mv := range res.Moves {
		if mv.Err != nil {
			t.Fatalf("rebalance move %+v failed: %v", mv, mv.Err)
		}
	}
	var counts []int
	for _, m := range ms {
		counts = append(counts, m.Load().Domains)
	}
	for _, n := range counts {
		if n != 2 {
			t.Fatalf("rebalance left domain counts %v, want [2 2 2]", counts)
		}
	}
}

// flakyProxy forwards TCP connections to backend, cutting the first one
// after capBytes of client→backend traffic; later connections pass through
// untouched. (Mirrors the hostd test helper.)
type flakyProxy struct {
	l       net.Listener
	backend string
	cap     int64
	first   sync.Once
	wg      sync.WaitGroup
}

func newFlakyProxy(backend string, capBytes int64) *flakyProxy {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	p := &flakyProxy{l: l, backend: backend, cap: capBytes}
	go p.serve()
	return p
}

func (p *flakyProxy) close() {
	p.l.Close()
	p.wg.Wait()
}

func (p *flakyProxy) serve() {
	for {
		client, err := p.l.Accept()
		if err != nil {
			return
		}
		flaky := false
		p.first.Do(func() { flaky = true })
		p.wg.Add(1)
		go p.forward(client, flaky)
	}
}

func (p *flakyProxy) forward(client net.Conn, flaky bool) {
	defer p.wg.Done()
	server, err := net.Dial("tcp", p.backend)
	if err != nil {
		client.Close()
		return
	}
	kill := func() {
		client.Close()
		server.Close()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if flaky {
			io.CopyN(server, client, p.cap)
			kill()
			return
		}
		io.Copy(server, client)
		kill()
	}()
	go func() {
		defer wg.Done()
		io.Copy(client, server)
	}()
	wg.Wait()
}
