package transport

import (
	"errors"
	"sync"
)

// ErrClosed is returned by pipe operations after Close.
var ErrClosed = errors.New("transport: connection closed")

// pipeConn is one end of an in-process duplex message pipe. Tests and
// bbench's suite use pipes to run a full source+destination migration in a
// single process without sockets.
type pipeConn struct {
	send chan<- Message
	recv <-chan Message

	once   sync.Once
	closed chan struct{}
	peer   *pipeConn
}

// NewPipe returns two connected Conns. Messages sent on one are received on
// the other in order. The buffer bounds in-flight messages per direction;
// a small buffer (e.g. 64) approximates TCP's bounded window so senders
// experience back-pressure, which the engine's pipelining must tolerate.
func NewPipe(buffer int) (Conn, Conn) {
	if buffer < 1 {
		buffer = 1
	}
	ab := make(chan Message, buffer)
	ba := make(chan Message, buffer)
	a := &pipeConn{send: ab, recv: ba, closed: make(chan struct{})}
	b := &pipeConn{send: ba, recv: ab, closed: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

// Send implements Conn.
func (p *pipeConn) Send(m Message) error {
	if len(m.Payload) > MaxPayload {
		return errors.New("transport: payload too large")
	}
	// Copy the payload into a pooled buffer: the engine reuses buffers, and
	// a real socket would have serialized the bytes at send time. The copy
	// is what makes Send borrow-only on pipes too — the receiver gets its
	// own pooled buffer, released (or not) under the usual Recv contract.
	if len(m.Payload) > 0 {
		cp := GetBuf(len(m.Payload))
		copy(cp, m.Payload)
		m.Payload = cp
	} else if m.Payload != nil {
		m.Payload = []byte{}
	}
	return p.sendOwned(m)
}

// sendOwned is Send for a payload the caller hands over: a pooled buffer,
// or an empty payload not the caller's, that the receiver gets as is.
// Latent hands its queued copies over this way.
func (p *pipeConn) sendOwned(m Message) error {
	// Check for closure first: with buffer space free, the select below
	// would otherwise pick randomly between the closed channel and the
	// send, making post-close sends succeed nondeterministically.
	select {
	case <-p.closed:
		return ErrClosed
	case <-p.peer.closed:
		return ErrClosed
	default:
	}
	select {
	case <-p.closed:
		return ErrClosed
	case <-p.peer.closed:
		return ErrClosed
	case p.send <- m:
		return nil
	}
}

// Recv implements Conn.
func (p *pipeConn) Recv() (Message, error) {
	select {
	case m := <-p.recv:
		return m, nil
	default:
	}
	select {
	case m := <-p.recv:
		return m, nil
	case <-p.closed:
		return Message{}, ErrClosed
	case <-p.peer.closed:
		// Drain messages that were in flight before the peer closed.
		select {
		case m := <-p.recv:
			return m, nil
		default:
			return Message{}, ErrClosed
		}
	}
}

// Close implements Conn.
func (p *pipeConn) Close() error {
	p.once.Do(func() { close(p.closed) })
	return nil
}
