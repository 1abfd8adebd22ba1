package core

import (
	"fmt"
	"maps"
	"slices"

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
// survived the hello exchange. Its methods run only on the destination's
// receive loop (one advert at a time); a fetch fans out one goroutine per
// peer, which touch nothing but their own peer's connection.
type swarmClient struct {
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
	live := slices.Clone(sc.peers[:min(len(sc.peers), len(fps))]) // drop edits sc.peers; no peer goes unasked
	if len(live) == 0 {
		return nil
	}
	// Partition round-robin so every peer's uplink pulls its share. Each
	// fingerprint goes to exactly one peer: the fleet's aggregate bandwidth
	// is the win, not redundant fetching.
	shares := make([][]dedup.Fingerprint, len(live))
	for i, fp := range fps {
		shares[i%len(live)] = append(shares[i%len(live)], fp)
	}
	type result struct {
		peer *swarmPeer
		got  map[dedup.Fingerprint][]byte
		err  error
	}
	results := make(chan result, len(live))
	for k, peer := range live {
		sc.seq++
		go func(p *swarmPeer, seq uint64, share []dedup.Fingerprint) {
			got, err := fetchFromPeer(p.conn, seq, share, blockSize)
			results <- result{peer: p, got: got, err: err}
		}(peer, sc.seq, shares[k])
	}
	out := make(map[dedup.Fingerprint][]byte)
	for range live {
		if r := <-results; r.err != nil {
			sc.drop(r.peer)
		} else {
			maps.Copy(out, r.got)
		}
	}
	return out
}

// drop removes a failed peer and closes its connection.
func (sc *swarmClient) drop(p *swarmPeer) {
	sc.peers = slices.DeleteFunc(sc.peers, func(q *swarmPeer) bool { return q == p })
	p.conn.Close()
}

// close tears down every remaining session.
func (sc *swarmClient) close() {
	for _, p := range sc.peers {
		p.conn.Close()
	}
	sc.peers = nil
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
