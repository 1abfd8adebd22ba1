package hostd

import (
	"fmt"
	"sync"
	"testing"

	"bbmig/internal/blockdev"
	"bbmig/internal/core"
	"bbmig/internal/transport"
	"bbmig/internal/workload"
)

// seedPattern writes `writes` recognizable blocks into a domain.
func seedPattern(t *testing.T, d *Domain, writes int, gen uint32) {
	t.Helper()
	buf := make([]byte, blockdev.BlockSize)
	for i := 0; i < writes; i++ {
		workload.FillBlock(buf, i, gen)
		if err := d.Submit(blockdev.Request{Op: blockdev.Write, Block: i, Domain: d.VM().DomainID, Data: buf}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentMigrations runs four simultaneous migrations touching one
// hub machine — two outbound, two inbound — over real TCP, the load the
// cluster scheduler puts on a host during churn. The hub's bookkeeping
// (domains map, progress trackers, domain-ID allocation) must hold under
// -race, and every guest must land intact.
func TestConcurrentMigrations(t *testing.T) {
	hub := NewMachine("hub")
	var peers []*Machine
	for i := 0; i < 4; i++ {
		peers = append(peers, NewMachine(fmt.Sprintf("peer%d", i)))
	}
	// Two domains leave the hub; two arrive from peers 2 and 3.
	for i, m := range []*Machine{hub, hub, peers[2], peers[3]} {
		d, err := m.CreateDomain(fmt.Sprintf("dom%d", i), 512, 32, workload.Web, int64(i), false)
		if err != nil {
			t.Fatal(err)
		}
		seedPattern(t, d, 128, uint32(10+i))
	}

	type leg struct {
		src, dst *Machine
		domain   string
	}
	legs := []leg{
		{hub, peers[0], "dom0"},
		{hub, peers[1], "dom1"},
		{peers[2], hub, "dom2"},
		{peers[3], hub, "dom3"},
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(legs)*2)
	for _, g := range legs {
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func(g leg) {
			defer wg.Done()
			defer l.Close()
			if _, err := g.dst.ServeOne(l, core.Config{}); err != nil {
				errs <- fmt.Errorf("%s<-%s: %w", g.dst.Name, g.src.Name, err)
			}
		}(g)
		go func(g leg, addr string) {
			defer wg.Done()
			if _, err := g.src.MigrateOut(g.domain, g.dst.Name, addr, core.Config{}); err != nil {
				errs <- fmt.Errorf("%s->%s: %w", g.src.Name, g.dst.Name, err)
			}
		}(g, l.Addr().String())
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Every domain landed where it should, with its pattern intact.
	wantAt := map[string]*Machine{
		"dom0": peers[0], "dom1": peers[1], "dom2": hub, "dom3": hub,
	}
	buf := make([]byte, blockdev.BlockSize)
	want := make([]byte, blockdev.BlockSize)
	for i, domain := range []string{"dom0", "dom1", "dom2", "dom3"} {
		d, ok := wantAt[domain].Domain(domain)
		if !ok {
			t.Fatalf("%s not hosted on %s", domain, wantAt[domain].Name)
		}
		for b := 0; b < 128; b++ {
			workload.FillBlock(want, b, uint32(10+i))
			if err := d.Disk().ReadBlock(b, buf); err != nil {
				t.Fatal(err)
			}
			if string(buf) != string(want) {
				t.Fatalf("%s block %d corrupted by concurrent migration", domain, b)
			}
		}
	}
	if got := hub.Load(); got.Domains != 2 || got.ActiveMigrations != 0 {
		t.Fatalf("hub load %+v after the churn, want 2 domains, 0 active", got)
	}
	// Departed domains left retained peer copies behind for IM.
	if got := hub.Load().RetainedDisks; got != 2 {
		t.Fatalf("hub retains %d disks, want 2", got)
	}
}

// TestSyncOutIncremental pre-syncs a running domain to a peer, keeps
// writing, and verifies the follow-up migration ships only the divergence —
// the drain path's shrunken cutover window.
func TestSyncOutIncremental(t *testing.T) {
	A, B := NewMachine("A"), NewMachine("B")
	d, err := A.CreateDomain("guest", tBlocks, tPages, workload.Web, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	seedPattern(t, d, 600, 1)

	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	syncErr := make(chan error, 1)
	go func() {
		_, err := B.ServeSync(l)
		syncErr <- err
	}()
	sr, err := A.SyncOut("guest", "B", l.Addr().String(), core.Config{MaxExtentBlocks: 64})
	l.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-syncErr; err != nil {
		t.Fatal(err)
	}
	if sr.Blocks != tBlocks {
		t.Fatalf("first sync shipped %d blocks, want the whole %d-block disk", sr.Blocks, tBlocks)
	}
	// The 600 written blocks travel literally, in the ten 64-block extents
	// that hold them; each of the other 22 extents was never written and
	// travels as one header-only zero run.
	const literal = 640
	if sr.DedupBlocks != tBlocks-literal {
		t.Fatalf("first sync sent %d blocks as zero runs, want %d", sr.DedupBlocks, tBlocks-literal)
	}
	if payload := int64(literal) * blockdev.BlockSize; sr.WireBytes <= payload || sr.WireBytes > payload+1<<10 {
		t.Fatalf("wire bytes %d, want the %d literal blocks' %d payload bytes plus frame headers", sr.WireBytes, literal, payload)
	}
	if got := A.Load().ActiveMigrations; got != 0 {
		t.Fatalf("sync left %d active migrations", got)
	}

	// The guest keeps running: 40 more writes diverge B's copy again.
	seedPattern(t, d, 40, 2)
	if got := d.Vault().DivergentBlocks("B"); got != 40 {
		t.Fatalf("vault says %d divergent blocks after post-sync writes, want 40", got)
	}

	// A second sync ships exactly the divergence.
	l2, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_, err := B.ServeSync(l2)
		syncErr <- err
	}()
	sr2, err := A.SyncOut("guest", "B", l2.Addr().String(), core.Config{MaxExtentBlocks: 64})
	l2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-syncErr; err != nil {
		t.Fatal(err)
	}
	if sr2.Blocks != 40 {
		t.Fatalf("incremental sync shipped %d blocks, want 40", sr2.Blocks)
	}

	// The cutover migration now has nothing to pre-copy in iteration 1.
	rep := hop(t, A, B, "guest")
	if units := rep.DiskIterations[0].Units; units != 0 {
		t.Fatalf("cutover iteration 1 sent %d blocks, want 0 after pre-sync", units)
	}
	// And B's disk is byte-identical to what the guest wrote.
	got, ok := B.Domain("guest")
	if !ok {
		t.Fatal("guest not on B")
	}
	buf := make([]byte, blockdev.BlockSize)
	want := make([]byte, blockdev.BlockSize)
	for b := 0; b < 600; b++ {
		gen := uint32(1)
		if b < 40 {
			gen = 2
		}
		workload.FillBlock(want, b, gen)
		if err := got.Disk().ReadBlock(b, buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != string(want) {
			t.Fatalf("block %d wrong after pre-synced migration", b)
		}
	}
}

// TestSyncOutRollback cuts the sync connection mid-transfer and verifies the
// vault re-diverges the attempted set, so a later incremental migration
// cannot skip blocks the peer never received.
func TestSyncOutRollback(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.Config
		// peer plays the destination on the accepted connection until it
		// returns; the connection is closed behind it.
		peer func(c transport.Conn)
	}{
		// A half-open destination that reads nothing: the sync's sends (or
		// its final ack wait) must fail.
		{"dead-peer", core.Config{}, func(transport.Conn) {}},
		// A dedup'd sync cut between an advert and its want reply: the
		// source is parked on the round trip when the link dies.
		{"dedup-cut-after-advert", core.Config{Dedup: true, MaxExtentBlocks: 16}, func(c transport.Conn) {
			for {
				m, err := c.Recv()
				if err != nil || m.Type == transport.MsgHashAdvert {
					return
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			A := NewMachine("A")
			d, err := A.CreateDomain("guest", tBlocks, tPages, workload.Web, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			seedPattern(t, d, 200, 1)

			l, err := transport.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			accepted := make(chan struct{})
			go func() {
				c, err := transport.Accept(l)
				if err != nil {
					return
				}
				close(accepted)
				tc.peer(c)
				c.Close()
			}()
			_, err = A.SyncOut("guest", "B", l.Addr().String(), tc.cfg)
			l.Close()
			<-accepted
			if err == nil {
				t.Fatal("sync against a dead peer reported success")
			}
			// The whole disk must still be owed to B.
			if got := d.Vault().DivergentBlocks("B"); got != tBlocks {
				t.Fatalf("vault owes B %d blocks after failed sync, want %d", got, tBlocks)
			}
		})
	}
}
