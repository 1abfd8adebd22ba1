package cluster

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"

	"bbmig/internal/blockdev"
	"bbmig/internal/core"
	"bbmig/internal/workload"
)

// TestClusterSwarmMigration runs Options.Swarm end to end: a clone sibling
// on a third machine makes its shared index able to produce the moving
// domain's content, the scheduler nominates it and starts a sidecar serve
// session, and the cold destination fetches every non-zero block from the
// peer — so the source ships the whole disk by reference, and the landed
// bytes still verify.
func TestClusterSwarmMigration(t *testing.T) {
	const filled = 256
	c := New(Options{Swarm: true, BaseConfig: core.Config{Dedup: true, MaxExtentBlocks: 16}})
	ms := newFleet(t, c, 3, 4)
	addDomain(t, ms[0], "guest", filled)
	addDomain(t, ms[2], "sibling", filled) // identical template content
	for _, m := range ms {
		if _, err := c.Heartbeat(m.Name); err != nil {
			t.Fatal(err)
		}
	}

	tk, err := c.Submit(Job{Domain: "guest", From: "host0", To: "host1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	rep := tk.Report()
	if rep == nil {
		t.Fatal("no migration report")
	}
	// The zero blocks elide natively; the filled blocks exist only in the
	// sibling's index, so anything short of a full-reference transfer means
	// the swarm peer was never consulted.
	if rep.DedupBlocks != tBlocks {
		t.Fatalf("%d of %d blocks travelled by reference — swarm peer not consulted", rep.DedupBlocks, tBlocks)
	}

	d, ok := ms[1].Domain("guest")
	if !ok {
		t.Fatal("guest not hosted on destination")
	}
	want := make([]byte, blockdev.BlockSize)
	got := make([]byte, blockdev.BlockSize)
	for i := 0; i < filled; i++ {
		workload.FillBlock(want, i, 7)
		if err := d.Disk().ReadBlock(i, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d landed wrong", i)
		}
	}
}

// TestClusterSwarmOffIgnoresJobPeers: Options.Swarm is the cluster's only
// swarm switch. A job whose own config runs dedup and names a swarm peer
// still migrates single-source when it is off — nobody dials the peer.
func TestClusterSwarmOffIgnoresJobPeers(t *testing.T) {
	peer, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var dialed atomic.Int32
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			conn, err := peer.Accept()
			if err != nil {
				return
			}
			dialed.Add(1)
			conn.Close()
		}
	}()

	c := New(Options{})
	ms := newFleet(t, c, 2, 4)
	addDomain(t, ms[0], "guest", 64)
	for _, m := range ms {
		if _, err := c.Heartbeat(m.Name); err != nil {
			t.Fatal(err)
		}
	}
	cfg := core.Config{Dedup: true, MaxExtentBlocks: 16, SwarmPeers: []string{peer.Addr().String()}}
	tk, err := c.Submit(Job{Domain: "guest", From: "host0", To: "host1", Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	err = tk.Wait()
	peer.Close()
	<-accepted
	if err != nil {
		t.Fatal(err)
	}
	if n := dialed.Load(); n != 0 {
		t.Fatalf("the destination dialed the job's swarm peer %d times with Options.Swarm off", n)
	}
}
