package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bbmig/internal/blockdev"
	"bbmig/internal/dedup"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/workload"
)

// swarmTestPeer serves the WIRE.md §11 sidecar protocol from a content map,
// with scriptable misbehaviour: refusing the hello, dying on the first
// fetch, or serving bytes that do not match their fingerprint.
type swarmTestPeer struct {
	content    map[dedup.Fingerprint][]byte
	refuse     bool // answer the hello with MsgError
	dieOnFetch bool // close the session instead of answering the first fetch
	corrupt    bool // claim hits but serve flipped bytes

	mu      sync.Mutex
	fetches int
}

func (p *swarmTestPeer) fetchCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fetches
}

func (p *swarmTestPeer) dial() (transport.Conn, error) {
	a, b := transport.NewPipe(64)
	go p.serve(b)
	return a, nil
}

func (p *swarmTestPeer) serve(conn transport.Conn) {
	defer conn.Close()
	hello, err := conn.Recv()
	if err != nil || hello.Type != transport.MsgSwarmHello {
		return
	}
	if p.refuse {
		conn.Send(transport.Message{Type: transport.MsgError, Payload: []byte("swarm refused")})
		return
	}
	if err := conn.Send(hello); err != nil { // echo = accept
		return
	}
	for {
		m, err := conn.Recv()
		if err != nil || m.Type != transport.MsgSwarmFetch {
			return
		}
		p.mu.Lock()
		p.fetches++
		dead := p.dieOnFetch
		p.mu.Unlock()
		if dead {
			return
		}
		count := len(m.Payload) / dedup.FingerprintSize
		fps, err := dedup.ParseFingerprintsInto(nil, m.Payload, count)
		if err != nil {
			return
		}
		mask := make([]byte, dedup.WantLen(count))
		var body []byte
		for i, fp := range fps {
			content, ok := p.content[fp]
			if !ok {
				continue
			}
			dedup.SetWant(mask, i)
			if p.corrupt {
				bad := append([]byte(nil), content...)
				bad[0] ^= 0xFF
				content = bad
			}
			body = append(body, content...)
		}
		reply := transport.Message{Type: transport.MsgSwarmBlock, Arg: m.Arg, Payload: append(mask, body...)}
		if err := conn.Send(reply); err != nil {
			return
		}
	}
}

// swarmDialer routes Config.SwarmPeers addresses to in-process test peers.
func swarmDialer(peers map[string]*swarmTestPeer) func(string) (transport.Conn, error) {
	return func(addr string) (transport.Conn, error) {
		p, ok := peers[addr]
		if !ok {
			return nil, fmt.Errorf("no such swarm peer %q", addr)
		}
		return p.dial()
	}
}

// templateContents builds the template block contents template writes,
// keyed by fingerprint — a warm peer's servable inventory.
func templateContents(distinct int) map[dedup.Fingerprint][]byte {
	out := make(map[dedup.Fingerprint][]byte, distinct)
	buf := make([]byte, blockdev.BlockSize)
	for i := 0; i < distinct; i++ {
		workload.FillBlock(buf, i, 7)
		c := append([]byte(nil), buf...)
		out[dedup.Of(c)] = c
	}
	return out
}

// TestSwarmFetchEndToEnd migrates the same template world single-source and
// swarm-assisted: the swarm run must fetch blocks from the peer, move
// materially fewer source-link bytes, and still converge byte-identically.
func TestSwarmFetchEndToEnd(t *testing.T) {
	const distinct = 512
	run := func(cfg Config) (*metrics.Report, *DestResult) {
		return newWorld(t, worldSpec{fill: template(distinct)}).tpm(cfg, cfg, nil)
	}
	base, baseRes := run(Config{Dedup: true, MaxExtentBlocks: 16})
	if baseRes.Report.SwarmBlocks != 0 {
		t.Fatalf("single-source run reported %d swarm blocks", baseRes.Report.SwarmBlocks)
	}

	peer := &swarmTestPeer{content: templateContents(distinct)}
	rep, res := run(Config{
		Dedup: true, MaxExtentBlocks: 16,
		SwarmPeers: []string{"warm"},
		swarmDial:  swarmDialer(map[string]*swarmTestPeer{"warm": peer}),
	})
	if res.Report.SwarmBlocks == 0 {
		t.Fatal("swarm run fetched nothing from the peer")
	}
	if peer.fetchCount() == 0 {
		t.Fatal("peer never consulted")
	}
	// The distinct template contents came over the sidecar instead of the
	// migration channel: the source link must be spared about that much.
	margin := int64(distinct) * blockdev.BlockSize / 2
	if rep.MigratedBytes+margin > base.MigratedBytes {
		t.Fatalf("swarm run moved %d source bytes vs %d single-source — sidecar saved too little", rep.MigratedBytes, base.MigratedBytes)
	}
}

// TestSwarmPeerFailures drives the fallback discipline: a refused hello, a
// peer dying mid-fetch, and a peer serving corrupt content must each leave
// the migration correct — the want-set falls back to literal sends — and a
// lying peer must be dropped after its first bad answer.
func TestSwarmPeerFailures(t *testing.T) {
	const distinct = 64
	run := func(peers map[string]*swarmTestPeer, order ...string) *DestResult {
		cfg := Config{
			Dedup: true, MaxExtentBlocks: 16,
			SwarmPeers: order,
			swarmDial:  swarmDialer(peers),
		}
		_, res := newWorld(t, worldSpec{fill: template(distinct)}).tpm(cfg, cfg, nil)
		return res
	}

	t.Run("refused-hello", func(t *testing.T) {
		peer := &swarmTestPeer{refuse: true}
		res := run(map[string]*swarmTestPeer{"p": peer}, "p")
		if res.Report.SwarmBlocks != 0 {
			t.Fatalf("%d swarm blocks from a peer that refused the hello", res.Report.SwarmBlocks)
		}
		if peer.fetchCount() != 0 {
			t.Fatal("fetch sent to a peer that refused the hello")
		}
	})

	t.Run("dies-mid-fetch", func(t *testing.T) {
		peer := &swarmTestPeer{content: templateContents(distinct), dieOnFetch: true}
		res := run(map[string]*swarmTestPeer{"p": peer}, "p")
		if res.Report.SwarmBlocks != 0 {
			t.Fatalf("%d swarm blocks from a peer that died mid-fetch", res.Report.SwarmBlocks)
		}
		if got := peer.fetchCount(); got != 1 {
			t.Fatalf("dead peer consulted %d times, want 1 (dropped after the failure)", got)
		}
	})

	t.Run("corrupt-content", func(t *testing.T) {
		peer := &swarmTestPeer{content: templateContents(distinct), corrupt: true}
		res := run(map[string]*swarmTestPeer{"p": peer}, "p")
		if res.Report.SwarmBlocks != 0 {
			t.Fatalf("%d swarm blocks accepted from a peer serving corrupt content", res.Report.SwarmBlocks)
		}
		if got := peer.fetchCount(); got != 1 {
			t.Fatalf("lying peer consulted %d times, want 1 (dropped after the first lie)", got)
		}
	})

	t.Run("survivor-covers", func(t *testing.T) {
		dead := &swarmTestPeer{content: templateContents(distinct), dieOnFetch: true}
		honest := &swarmTestPeer{content: templateContents(distinct)}
		res := run(map[string]*swarmTestPeer{"dead": dead, "honest": honest}, "dead", "honest")
		if res.Report.SwarmBlocks == 0 {
			t.Fatal("surviving peer served nothing after its sibling died")
		}
		if honest.fetchCount() == 0 {
			t.Fatal("honest peer never consulted")
		}
	})
}

// TestSwarmRefusesPaddedHitMask: a peer whose SWARM_BLOCK hit-mask sets a bit
// past the fetch's count is refused, even though the content it sends for
// the real hits verifies.
func TestSwarmRefusesPaddedHitMask(t *testing.T) {
	var fps []dedup.Fingerprint
	var body []byte
	for fp, content := range templateContents(3) {
		fps = append(fps, fp)
		body = append(body, content...)
	}
	a, b := transport.NewPipe(4)
	defer a.Close()
	go func() {
		m, err := b.Recv()
		if err == nil {
			b.Send(transport.Message{Type: transport.MsgSwarmBlock, Arg: m.Arg, Payload: append([]byte{0b1000_0111}, body...)})
		}
	}()
	if _, err := fetchFromPeer(a, 9, fps, blockdev.BlockSize); err == nil || !strings.Contains(err.Error(), "padding bit") {
		t.Fatalf("a hit-mask with a padding bit set: %v", err)
	}
}

// TestSwarmResumeAcrossCut cuts the migration channel mid disk pre-copy of
// a swarm-assisted run: the sidecar sessions are untouched, the source
// resumes over a fresh link, and the migration converges with the swarm's
// pre-cut work intact.
func TestSwarmResumeAcrossCut(t *testing.T) {
	const distinct = 64
	peer := &swarmTestPeer{content: templateContents(distinct)}
	w := newWorld(t, worldSpec{fill: template(distinct)})

	inj := transport.NewInjector([]transport.Fault{{AfterSends: 80, Kind: transport.FaultCut}})
	relink := newPipeRelinker(inj)
	srcCfg := Config{
		Dedup: true, MaxExtentBlocks: 16,
		MaxRetries: 5, RetryBackoff: time.Millisecond,
		Redial: relink.redial,
	}
	dstCfg := Config{
		Dedup: true, MaxExtentBlocks: 16,
		SwarmPeers:    []string{"warm"},
		swarmDial:     swarmDialer(map[string]*swarmTestPeer{"warm": peer}),
		WaitReconnect: relink.waitReconnect,
	}

	w.connSrc = inj.Wrap(w.connSrc)
	rep, res := w.tpm(srcCfg, dstCfg, nil)
	if rep.Retries != 1 {
		t.Fatalf("source survived %d retries, want 1", rep.Retries)
	}
	if res.Report.SwarmBlocks == 0 {
		t.Fatal("swarm produced nothing across the cut")
	}
}
