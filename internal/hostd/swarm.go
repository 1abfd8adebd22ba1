package hostd

import (
	"fmt"
	"net"

	"bbmig/internal/core"
	"bbmig/internal/dedup"
	"bbmig/internal/transport"
)

// This file is the peer half of swarm multi-source migration (WIRE.md §11):
// a machine that is neither source nor destination serves verified block
// content from its fingerprint index over a sidecar session, so an
// evacuating fleet's destinations can draw on every uplink that holds a
// copy. The serve loop mirrors ServeSync structurally — accept one
// connection, dispatch frames until the peer hangs up — and paces through
// the engine's core.Pacer: the rate is re-read per answer from the shared
// budget, so an orchestrator retuning mid-flight takes effect on the next
// frame.

// ServeSwarm accepts exactly one sidecar swarm-fetch session on l and
// serves it from the machine's content index until the fetching destination
// disconnects (the normal end of a session — the destination simply closes
// when its migration finishes, so a closed connection is success, not
// error). Every answered block is produced through the index's
// verify-on-read LookupInto: stale or corrupt local content degrades to a miss
// the destination covers from the source, never to wrong bytes on the wire.
//
// budget, when non-nil, paces the session: the per-frame rate is the
// budget's current per-member share, re-read before every answer, and the
// session holds a Join for its whole lifetime so concurrent migrations and
// swarm serves dilute each other honestly. A nil budget serves unpaced.
func (m *Machine) ServeSwarm(l net.Listener, budget *core.RateBudget) error {
	conn, err := transport.Accept(l)
	if err != nil {
		return err
	}
	defer conn.Close()
	return m.serveSwarmConn(conn, budget)
}

// serveSwarmConn runs the hello exchange and fetch loop over an established
// sidecar connection.
func (m *Machine) serveSwarmConn(conn transport.Conn, budget *core.RateBudget) error {
	hello, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("hostd: swarm hello: %w", err)
	}
	if hello.Type != transport.MsgSwarmHello {
		return fmt.Errorf("hostd: expected SWARM_HELLO, got %v", hello.Type)
	}
	idx := m.prepareDedup()
	if int(hello.Arg) != idx.BlockSize() {
		_ = conn.Send(transport.Message{Type: transport.MsgError,
			Payload: []byte(fmt.Sprintf("hostd: swarm block size %d, index %d", hello.Arg, idx.BlockSize()))})
		return fmt.Errorf("hostd: swarm block size %d, index %d", hello.Arg, idx.BlockSize())
	}
	if err := conn.Send(transport.Message{Type: transport.MsgSwarmHello, Arg: hello.Arg, Payload: hello.Payload}); err != nil {
		return err
	}

	var pace *core.Pacer // nil: unpaced
	if budget != nil {
		leave := budget.Join()
		defer leave()
		pace = core.NewPacer(budget.Share)
	}

	for {
		msg, err := conn.Recv()
		if err != nil {
			return nil // session over: the destination closed its sidecar
		}
		if msg.Type != transport.MsgSwarmFetch {
			return fmt.Errorf("hostd: unexpected swarm frame %v", msg.Type)
		}
		if len(msg.Payload)%dedup.FingerprintSize != 0 {
			return fmt.Errorf("hostd: swarm fetch payload %d bytes not a fingerprint multiple", len(msg.Payload))
		}
		count := len(msg.Payload) / dedup.FingerprintSize
		// One pooled reply buffer, laid out as it travels: hit-mask, then the
		// hit blocks in order, each verified where it lies.
		bs, maskLen := idx.BlockSize(), dedup.WantLen(count)
		buf := transport.GetBuf(maskLen + count*bs)
		clear(buf[:maskLen])
		n := maskLen
		for k := 0; k < count; k++ {
			var fp dedup.Fingerprint
			copy(fp[:], msg.Payload[k*dedup.FingerprintSize:])
			if idx.LookupInto(fp, buf[n:n+bs]) {
				dedup.SetWant(buf, k) // hit bit: content follows in order
				n += bs
			}
		}
		reply := transport.Message{Type: transport.MsgSwarmBlock, Arg: msg.Arg, Payload: buf[:n]}
		pace.Wait(reply.FrameSize())
		err = conn.Send(reply)
		transport.PutBuf(buf) // Send only borrowed it
		if err != nil {
			return fmt.Errorf("hostd: swarm send: %w", err)
		}
	}
}
