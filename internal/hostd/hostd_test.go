package hostd

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"bbmig/internal/blockdev"
	"bbmig/internal/core"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

const (
	tBlocks = 2048
	tPages  = 128
)

// hop migrates domain from src to dst over loopback TCP and returns the
// source report.
func hop(t *testing.T, src, dst *Machine, domain string) *metrics.Report {
	t.Helper()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	resCh := make(chan error, 1)
	go func() {
		_, err := dst.ServeOne(l, core.Config{})
		resCh <- err
	}()
	rep, err := src.MigrateOut(domain, dst.Name, l.Addr().String(), core.Config{})
	if err != nil {
		t.Fatalf("hop %s→%s: source: %v", src.Name, dst.Name, err)
	}
	if err := <-resCh; err != nil {
		t.Fatalf("hop %s→%s: destination: %v", src.Name, dst.Name, err)
	}
	return rep
}

// shadowed is a guest's disk as its writes made it. It follows the domain
// from machine to machine: writes go to whichever Domain d is.
type shadowed struct {
	*workload.Shadow
	d *Domain
}

func shadow(t *testing.T, d *Domain) *shadowed {
	t.Helper()
	s := &shadowed{d: d}
	var err error
	if s.Shadow, err = workload.NewShadow(d.Disk(), func(req blockdev.Request) error {
		req.Domain = s.d.VM().DomainID
		return s.d.Submit(req)
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

// write writes blocks [lo, lo+n) through the shadow.
func (s *shadowed) write(t *testing.T, lo, n int) {
	t.Helper()
	buf := make([]byte, blockdev.BlockSize)
	for i := lo; i < lo+n; i++ {
		if err := s.Submit(blockdev.Request{Op: blockdev.Write, Block: i, Data: buf}); err != nil {
			t.Fatal(err)
		}
	}
}

// on follows the domain to m and requires its disk there to hold every write.
func (s *shadowed) on(t *testing.T, m *Machine) *Domain {
	t.Helper()
	d, ok := m.Domain(s.d.Name)
	if !ok {
		t.Fatalf("%s not on %s", s.d.Name, m.Name)
	}
	if err := s.Verify(d.Disk()); err != nil {
		t.Fatalf("on %s: %v", m.Name, err)
	}
	s.d = d
	return d
}

func TestAnnounceRoundTrip(t *testing.T) {
	a := announce{
		name:    "guest-7",
		srcHost: "machine-A",
		geom:    transport.Geometry{BlockSize: 4096, NumBlocks: 100, PageSize: 4096, NumPages: 50},
		kind:    workload.Diabolic,
		work:    true,
		swarm:   true,
	}
	data, err := a.marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshalAnnounce(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("round trip %+v != %+v", got, a)
	}
	if _, err := unmarshalAnnounce(data[:5]); err == nil {
		t.Fatal("truncated announce accepted")
	}
	if _, err := unmarshalAnnounce(append(data, 0)); err == nil {
		t.Fatal("oversized announce accepted")
	}
}

func TestCreateDomainBasics(t *testing.T) {
	m := NewMachine("A")
	d, err := m.CreateDomain("g", tBlocks, tPages, workload.Web, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if d.VM().State() != vm.Running {
		t.Fatal("new domain not running")
	}
	if _, err := m.CreateDomain("g", tBlocks, tPages, workload.Web, 1, false); err == nil {
		t.Fatal("duplicate domain accepted")
	}
	if len(m.Domains()) != 1 {
		t.Fatalf("Domains = %v", m.Domains())
	}
	if _, ok := m.Domain("g"); !ok {
		t.Fatal("lookup failed")
	}
	if _, err := m.MigrateOut("nope", "B", "127.0.0.1:1", core.Config{}); err == nil {
		t.Fatal("migrating unknown domain accepted")
	}
}

// TestHostdChainIncremental walks a quiescent domain A→B→C→A with manual
// writes between hops and asserts (1) byte-identical disks at every hop,
// (2) the C→A return trip is incremental: it transfers only the blocks
// dirtied since the domain left A.
func TestHostdChainIncremental(t *testing.T) {
	A, B, C := NewMachine("A"), NewMachine("B"), NewMachine("C")
	d, err := A.CreateDomain("guest", tBlocks, tPages, workload.Web, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	g := shadow(t, d)
	g.write(t, 100, 50)
	repAB := hop(t, A, B, "guest")
	if len(A.Domains()) != 0 {
		t.Fatal("domain still on A after migrating away")
	}
	g.on(t, B)
	if repAB.DiskIterations[0].Units != tBlocks {
		t.Fatalf("first hop sent %d blocks, want full disk", repAB.DiskIterations[0].Units)
	}

	g.write(t, 200, 30)
	repBC := hop(t, B, C, "guest")
	g.on(t, C)
	if repBC.DiskIterations[0].Units != tBlocks {
		t.Fatalf("hop to unknown host C sent %d blocks, want full", repBC.DiskIterations[0].Units)
	}

	g.write(t, 300, 20)
	repCA := hop(t, C, A, "guest")
	g.on(t, A)
	// Incremental: A diverges by the writes made on B (30) and C (20) only.
	sent := repCA.DiskIterations[0].Units
	if sent != 50 {
		t.Fatalf("return to A sent %d blocks, want exactly 50 divergent", sent)
	}
	if repCA.Scheme != "IM" {
		t.Fatalf("return scheme %q", repCA.Scheme)
	}
}

// TestHostdLiveWorkloadRoundTrip migrates a domain under its built-in web
// workload A→B and back, checking hosting state, disk consistency at each
// freeze point, and that the return trip is incremental.
func TestHostdLiveWorkloadRoundTrip(t *testing.T) {
	A, B := NewMachine("A"), NewMachine("B")
	if _, err := A.CreateDomain("web", tBlocks, tPages, workload.Web, 1, true); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the guest dirty some state

	hop(t, A, B, "web")
	dB, ok := B.Domain("web")
	if !ok {
		t.Fatal("domain not hosted on B")
	}
	if dB.VM().State() != vm.Running {
		t.Fatal("domain not running on B")
	}
	// The retained copy on A equals B's disk at the freeze point; B's disk
	// has since moved on (workload restarted). Verify the vault knows A's
	// divergence is exactly B's post-freeze writes: give the guest a moment,
	// then migrate back and compare.
	time.Sleep(80 * time.Millisecond)

	rep := hop(t, B, A, "web")
	dA, ok := A.Domain("web")
	if !ok {
		t.Fatal("domain not back on A")
	}
	if rep.DiskIterations[0].Units >= tBlocks/2 {
		t.Fatalf("return trip sent %d blocks — not incremental", rep.DiskIterations[0].Units)
	}
	// Quiesce and verify the disk matches B's retained frozen copy.
	dA.StopWorkload()
	B.mu.Lock()
	frozen := B.retained["web"]
	B.mu.Unlock()
	if frozen == nil {
		t.Fatal("B retained no copy")
	}
	// A's live disk = frozen + A's post-resume writes; every difference
	// must be flagged in A's vault as divergence of B.
	diffs, err := blockdev.Diff(dA.Disk(), frozen)
	if err != nil {
		t.Fatal(err)
	}
	divB := dA.Vault().InitialFor("B")
	for _, n := range diffs {
		if !divB.Test(n) {
			t.Fatalf("block %d differs from B's copy but is not in B's divergence set", n)
		}
	}
}

// TestHostdMigrationFailureKeepsGuest verifies a failed outbound migration
// leaves the domain running on the source.
func TestHostdMigrationFailureKeepsGuest(t *testing.T) {
	A := NewMachine("A")
	if _, err := A.CreateDomain("g", tBlocks, tPages, workload.Web, 1, true); err != nil {
		t.Fatal(err)
	}
	// destination that accepts and immediately slams the door
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := transport.Accept(l)
		if err == nil {
			c.Close()
		}
	}()
	if _, err := A.MigrateOut("g", "B", l.Addr().String(), core.Config{}); err == nil {
		t.Fatal("migration to a slammed door succeeded")
	}
	d, ok := A.Domain("g")
	if !ok {
		t.Fatal("domain evicted despite failed migration")
	}
	if d.VM().State() != vm.Running {
		t.Fatalf("guest state %v after failed migration", d.VM().State())
	}
	// the guest can still do I/O
	buf := make([]byte, blockdev.BlockSize)
	if err := d.Submit(blockdev.Request{Op: blockdev.Write, Block: 0, Domain: d.VM().DomainID, Data: buf}); err != nil {
		t.Fatal(err)
	}
	d.StopWorkload()
}

// TestHostdStripedHop migrates a domain daemon-to-daemon with a multi-stream
// transfer to a receiver configured with nothing: it learns the width from
// the bundle's labels. The striped engine and the vault hand-off land the
// source's frozen disk.
func TestHostdStripedHop(t *testing.T) {
	A, B := NewMachine("A"), NewMachine("B")
	d, err := A.CreateDomain("guest", tBlocks, tPages, workload.Web, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	g := shadow(t, d)
	g.write(t, 0, 600)

	cfg := core.Config{Streams: 4, MaxExtentBlocks: 32, Workers: 3}
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	resCh := make(chan error, 1)
	go func() {
		_, err := B.ServeOne(l, core.Config{})
		resCh <- err
	}()
	rep, err := A.MigrateOut("guest", "B", l.Addr().String(), cfg)
	if err != nil {
		t.Fatalf("striped migrate out: %v", err)
	}
	if err := <-resCh; err != nil {
		t.Fatalf("striped serve: %v", err)
	}
	if rep.DiskIterations[0].Units != tBlocks {
		t.Fatalf("sent %d blocks, want full disk", rep.DiskIterations[0].Units)
	}
	dom := g.on(t, B)
	if dom.Vault() == nil {
		t.Fatal("vault not shipped over striped bundle")
	}
	if got := dom.VM().State(); got != vm.Running {
		t.Fatalf("received VM state %v", got)
	}
}

// TestHostdCompressedHop compresses a daemon-to-daemon hop: the sender
// names a level, the unconfigured receiver follows its HELLO, and the
// migrated disk arrives intact.
func TestHostdCompressedHop(t *testing.T) {
	A, B := NewMachine("A"), NewMachine("B")
	d, err := A.CreateDomain("guest", tBlocks, tPages, workload.Web, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	g := shadow(t, d)
	g.write(t, 0, 400)
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	resCh := make(chan error, 1)
	go func() {
		_, err := B.ServeOne(l, core.Config{}) // receiver unconfigured: follows
		resCh <- err
	}()
	if _, err := A.MigrateOut("guest", "B", l.Addr().String(), core.Config{CompressLevel: 6}); err != nil {
		t.Fatalf("compressed migrate out: %v", err)
	}
	if err := <-resCh; err != nil {
		t.Fatalf("compressed serve: %v", err)
	}
	g.on(t, B)
}

// TestHostdCompressFollowsSender: a receiver handed a flate level of its own
// takes a migration compressed at another — the level is the sender's alone,
// and the receiver's is ignored — and the guest runs on B with its disk
// intact.
func TestHostdCompressFollowsSender(t *testing.T) {
	A, B := NewMachine("A"), NewMachine("B")
	d, err := A.CreateDomain("guest", tBlocks, tPages, workload.Web, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	g := shadow(t, d)
	g.write(t, 0, 400)
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	resCh := make(chan error, 1)
	go func() {
		_, err := B.ServeOne(l, core.Config{CompressLevel: 9})
		resCh <- err
	}()
	if _, err := A.MigrateOut("guest", "B", l.Addr().String(), core.Config{CompressLevel: 1}); err != nil {
		t.Fatalf("migrate out: %v", err)
	}
	if err := <-resCh; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if got := g.on(t, B).VM().State(); got != vm.Running {
		t.Fatalf("guest state %v on B", got)
	}
	if _, ok := A.Domain("guest"); ok {
		t.Fatal("guest still on A")
	}
}

// TestHostdLiveStatus queries MigrationProgress for an in-flight migration
// from both machines: at the freeze point the outbound side must report the
// phase and bytes moved, and the inbound side must know the migration too.
func TestHostdLiveStatus(t *testing.T) {
	A, B := NewMachine("A"), NewMachine("B")
	if _, err := A.CreateDomain("guest", tBlocks, tPages, workload.Web, 1, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := A.MigrationProgress("guest"); ok {
		t.Fatal("idle machine reports a migration")
	}
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	resCh := make(chan error, 1)
	go func() {
		_, err := B.ServeOne(l, core.Config{})
		resCh <- err
	}()
	var atFreezeA, atFreezeB core.Progress
	var okA, okB bool
	cfg := core.Config{OnFreeze: func() {
		atFreezeA, okA = A.MigrationProgress("guest")
		atFreezeB, okB = B.MigrationProgress("guest")
	}}
	if _, err := A.MigrateOut("guest", "B", l.Addr().String(), cfg); err != nil {
		t.Fatalf("migrate out: %v", err)
	}
	if err := <-resCh; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if !okA {
		t.Fatal("source machine had no live status at the freeze point")
	}
	if atFreezeA.Phase == "" || atFreezeA.Done {
		t.Fatalf("source live status %+v", atFreezeA)
	}
	if atFreezeA.BytesTransferred == 0 {
		t.Fatal("source live status reports zero bytes after the disk pre-copy")
	}
	if atFreezeA.Side != "source" {
		t.Fatalf("source live status side %q", atFreezeA.Side)
	}
	if !okB {
		t.Fatal("destination machine had no live status at the freeze point")
	}
	if atFreezeB.Side != "dest" || atFreezeB.Done {
		t.Fatalf("dest live status %+v", atFreezeB)
	}
	// After completion the entries are gone.
	if _, ok := A.MigrationProgress("guest"); ok {
		t.Fatal("source still reports a migration after completion")
	}
	if _, ok := B.MigrationProgress("guest"); ok {
		t.Fatal("dest still reports a migration after completion")
	}
	if n := len(A.ActiveMigrations()) + len(B.ActiveMigrations()); n != 0 {
		t.Fatalf("%d active migrations after completion", n)
	}
}

// flakyProxy forwards TCP connections to backend, cutting the first
// connection after capBytes of client→backend traffic, or when cut is called;
// later connections pass through untouched. It models a link flap between two
// host daemons.
type flakyProxy struct {
	l       net.Listener
	backend string
	cap     int64
	first   sync.Once
	wg      sync.WaitGroup

	mu   sync.Mutex
	kill func() // the first connection's, once it is open
}

// cut kills the first connection now.
func (p *flakyProxy) cut() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.kill != nil {
		p.kill()
	}
}

func newFlakyProxy(t *testing.T, backend string, capBytes int64) *flakyProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{l: l, backend: backend, cap: capBytes}
	go p.serve()
	return p
}

func (p *flakyProxy) addr() string { return p.l.Addr().String() }

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
	if flaky {
		p.mu.Lock()
		p.kill = kill
		p.mu.Unlock()
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

// TestHostdResumableHop cuts the TCP link mid-migration between two host
// daemons; the source re-dials through the (now healthy) path, resumes the
// session, and the hop completes with the usual consistency guarantees —
// including the vault handoff that follows the engine exchange.
func TestHostdResumableHop(t *testing.T) {
	A, B := NewMachine("A"), NewMachine("B")
	d, err := A.CreateDomain("guest", tBlocks, tPages, workload.Web, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	g := shadow(t, d)
	g.write(t, 100, 300)

	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Cut the first connection roughly mid disk pre-copy (~2048 block
	// frames of 4 KiB): well after the announce, well before completion.
	proxy := newFlakyProxy(t, l.Addr().String(), int64(tBlocks)*blockdev.BlockSize/2)
	defer proxy.close()

	resCh := make(chan error, 1)
	go func() {
		_, err := B.ServeOne(l, core.Config{})
		resCh <- err
	}()
	rep, err := A.MigrateOut("guest", B.Name, proxy.addr(), core.Config{
		MaxRetries:   5,
		RetryBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("source: %v", err)
	}
	if err := <-resCh; err != nil {
		t.Fatalf("destination: %v", err)
	}
	if rep.Retries < 1 {
		t.Fatalf("migration survived %d retries, want ≥ 1 (fault never fired?)", rep.Retries)
	}
	dom := g.on(t, B)
	if len(A.Domains()) != 0 {
		t.Fatal("domain still on A after a successful (resumed) migration")
	}
	// The vault must have survived the rebinds: migrating back is
	// incremental.
	if dom.Vault() == nil {
		t.Fatal("vault missing after resumed hop")
	}
}

// TestHostdRetryAfterFailedReturn: an incremental return that dies mid-link
// leaves both machines fit to retry it. A→B, forty writes on B, then a B→A
// return whose link is cut at the freeze: B has frozen the guest, A has
// written the forty blocks but never resumed it. B must run the guest again
// (not leave it frozen), and A must still hold its copy as the return's base
// (not drop it with the failed attempt), so the clean retry moves the same
// forty blocks and lands A's disk exactly.
func TestHostdRetryAfterFailedReturn(t *testing.T) {
	A, B := NewMachine("A"), NewMachine("B")
	d, err := A.CreateDomain("guest", tBlocks, tPages, workload.Web, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	g := shadow(t, d)
	g.write(t, 0, tBlocks) // a disk a fresh volume is no stand-in for
	hop(t, A, B, "guest")
	g.on(t, B)
	g.write(t, 100, 40)

	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	proxy := newFlakyProxy(t, l.Addr().String(), 1<<40)
	defer proxy.close()
	resCh := make(chan error, 1)
	go func() {
		_, err := A.ServeOne(l, core.Config{})
		resCh <- err
	}()
	if _, err := B.MigrateOut("guest", A.Name, proxy.addr(), core.Config{OnFreeze: proxy.cut}); err == nil {
		t.Fatal("return over a cut link succeeded")
	}
	if err := <-resCh; err == nil {
		t.Fatal("A accepted a return over a cut link")
	}
	if dB, ok := B.Domain("guest"); !ok || dB.VM().State() != vm.Running {
		t.Fatalf("after the failed return the guest is hosted on B: %v, running: %v", ok, ok && dB.VM().State() == vm.Running)
	}

	rep := hop(t, B, A, "guest")
	g.on(t, A)
	if sent := rep.DiskIterations[0].Units; sent != 40 {
		t.Fatalf("retry sent %d blocks, want the 40 divergent", sent)
	}
}
