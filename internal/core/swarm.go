package core

import (
	"fmt"
	"sync"

	"bbmig/internal/dedup"
	"bbmig/internal/transport"
)

// This file is the destination half of swarm multi-source fetch
// (Config.SwarmPeers): sidecar sessions to peer host daemons whose
// fingerprint indexes can produce wanted content, so an evacuation draws on
// the fleet's uplinks instead of the source's alone. The swarm rides outside
// the migration channel — MsgSwarmHello / MsgSwarmFetch / MsgSwarmBlock
// frames (WIRE.md §11) travel destination→peer connections — and it is
// purely an optimization: every fetched block is re-fingerprinted before it
// is trusted, and anything the swarm fails to produce simply stays in the
// want-bitmap for a literal send from the source.

// swarmPeer is one live sidecar session.
type swarmPeer struct {
	addr string
	conn transport.Conn
}

// swarmClient fans fingerprint fetches across the sidecar sessions that
// survived the hello exchange. Methods are called only from the
// destination's receive loop (one advert at a time), but the per-fetch
// fan-out runs one goroutine per peer.
type swarmClient struct {
	mu    sync.Mutex
	peers []*swarmPeer
	seq   uint64
}

// dialSwarm opens and handshakes every configured peer session. Peers that
// cannot be dialed, refuse the hello, or answer nonsense are dropped
// silently: the swarm is best-effort by contract. Returns nil when no peer
// survived, which disables the swarm for this migration.
func dialSwarm(cfg Config, domain string, blockSize int) *swarmClient {
	dial := cfg.swarmDial
	if dial == nil {
		dial = transport.Dial
	}
	sc := &swarmClient{}
	for _, addr := range cfg.SwarmPeers {
		conn, err := dial(addr)
		if err != nil {
			continue
		}
		hello := transport.Message{
			Type:    transport.MsgSwarmHello,
			Arg:     uint64(blockSize),
			Payload: []byte(domain),
		}
		if err := conn.Send(hello); err != nil {
			conn.Close()
			continue
		}
		ack, err := conn.Recv()
		if err != nil || ack.Type != transport.MsgSwarmHello || ack.Arg != uint64(blockSize) {
			conn.Close()
			continue
		}
		sc.peers = append(sc.peers, &swarmPeer{addr: addr, conn: conn})
	}
	if len(sc.peers) == 0 {
		return nil
	}
	return sc
}

// fetch asks the live peers for the given fingerprints, round-robin
// partitioned, and returns whatever content arrived and verified
// (dedup.Of(content) == fingerprint at the right block size). Missing
// entries mean no peer produced the block; the caller leaves those wanted.
// A peer that errors — dead connection, bad frame, or content failing
// verification — is dropped for the rest of the migration, and its share of
// the request is simply not retried: the literal fallback covers it.
func (sc *swarmClient) fetch(fps []dedup.Fingerprint, blockSize int) map[dedup.Fingerprint][]byte {
	sc.mu.Lock()
	live := append([]*swarmPeer(nil), sc.peers...)
	sc.mu.Unlock()
	if len(live) == 0 || len(fps) == 0 {
		return nil
	}

	// Partition round-robin so every peer's uplink pulls its share. Each
	// fingerprint goes to exactly one peer: the fleet's aggregate bandwidth
	// is the win, not redundant fetching.
	shares := make([][]dedup.Fingerprint, len(live))
	for i, fp := range fps {
		k := i % len(live)
		shares[k] = append(shares[k], fp)
	}

	type result struct {
		peer *swarmPeer
		got  map[dedup.Fingerprint][]byte
		err  error
	}
	results := make(chan result, len(live))
	for k, peer := range live {
		share := shares[k]
		if len(share) == 0 {
			continue
		}
		seq := sc.nextSeq()
		go func(p *swarmPeer) {
			got, err := fetchFromPeer(p.conn, seq, share, blockSize)
			results <- result{peer: p, got: got, err: err}
		}(peer)
	}

	out := make(map[dedup.Fingerprint][]byte)
	for k := range live {
		if len(shares[k]) == 0 {
			continue
		}
		r := <-results
		if r.err != nil {
			sc.drop(r.peer)
			continue
		}
		for fp, content := range r.got {
			out[fp] = content
		}
	}
	return out
}

// nextSeq mints a request sequence number.
func (sc *swarmClient) nextSeq() uint64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.seq++
	return sc.seq
}

// drop removes a failed peer and closes its connection.
func (sc *swarmClient) drop(p *swarmPeer) {
	sc.mu.Lock()
	for i, q := range sc.peers {
		if q == p {
			sc.peers = append(sc.peers[:i], sc.peers[i+1:]...)
			break
		}
	}
	sc.mu.Unlock()
	p.conn.Close()
}

// close tears down every remaining session.
func (sc *swarmClient) close() {
	sc.mu.Lock()
	peers := sc.peers
	sc.peers = nil
	sc.mu.Unlock()
	for _, p := range peers {
		p.conn.Close()
	}
}

// fetchFromPeer runs one MsgSwarmFetch/MsgSwarmBlock round trip and
// verifies everything the peer produced. Any protocol violation — wrong
// type, wrong echoed sequence, a payload that does not match its hit-mask,
// or content whose fingerprint does not verify — is an error: a peer that
// lies once is not consulted again.
func fetchFromPeer(conn transport.Conn, seq uint64, fps []dedup.Fingerprint, blockSize int) (map[dedup.Fingerprint][]byte, error) {
	req := transport.Message{
		Type:    transport.MsgSwarmFetch,
		Arg:     seq,
		Payload: dedup.AppendFingerprints(nil, fps),
	}
	if err := conn.Send(req); err != nil {
		return nil, err
	}
	m, err := conn.Recv()
	if err != nil {
		return nil, err
	}
	if m.Type != transport.MsgSwarmBlock || m.Arg != seq {
		return nil, fmt.Errorf("core: swarm peer answered %v (arg %d), want SWARM_BLOCK (arg %d)", m.Type, m.Arg, seq)
	}
	maskLen := min(dedup.WantLen(len(fps)), len(m.Payload)) // short: CheckMask refuses it
	mask, body := m.Payload[:maskLen], m.Payload[maskLen:]
	if err := dedup.CheckMask(mask, len(fps)); err != nil {
		return nil, fmt.Errorf("core: swarm block hit-mask: %w", err)
	}
	got := make(map[dedup.Fingerprint][]byte)
	off := 0
	for i, fp := range fps {
		if !dedup.Want(mask, i) {
			continue
		}
		if off+blockSize > len(body) {
			return nil, fmt.Errorf("core: swarm block payload short: %d hits need %d bytes, have %d", i+1, off+blockSize, len(body))
		}
		content := body[off : off+blockSize]
		off += blockSize
		// Verify before trusting: the peer's index is advisory, and a
		// corrupt or stale copy must degrade to a miss, never wrong bytes.
		if dedup.Of(content) != fp {
			return nil, fmt.Errorf("core: swarm peer served content failing fingerprint verification")
		}
		got[fp] = content
	}
	if off != len(body) {
		return nil, fmt.Errorf("core: swarm block payload has %d trailing bytes", len(body)-off)
	}
	return got, nil
}
