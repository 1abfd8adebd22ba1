package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Conn is a bidirectional, ordered message stream between the two migration
// daemons. Send and Recv may be used from different goroutines; concurrent
// Sends are serialized internally (the post-copy pusher and the pull-reply
// path share one connection, like the paper's single blkd socket).
type Conn interface {
	// Send writes one message.
	Send(m Message) error
	// Recv reads the next message, blocking until one arrives.
	Recv() (Message, error)
	// Close tears down the connection; pending Recv calls fail.
	Close() error
}

// streamConn frames messages over any byte stream.
type streamConn struct {
	sendMu sync.Mutex
	w      io.Writer
	r      *bufio.Reader
	c      io.Closer
	hdr    [headerLen]byte // reused send header, guarded by sendMu
	small  []byte          // staging buffer for small frames, guarded by sendMu
	rhdr   [headerLen]byte // reused recv header (Recv is single-consumer)
}

// vectoredMin is the payload size at which Send switches from staging the
// frame into one contiguous buffer to a vectored header+payload write
// (writev on a TCP conn). Below it, the copy is cheaper than a second
// iovec; above it, the copy would dominate.
const vectoredMin = 1 << 10

// NewStream wraps a byte stream (typically a *net.TCPConn) as a Conn.
func NewStream(rw io.ReadWriteCloser) Conn {
	return &streamConn{
		w: rw,
		r: bufio.NewReaderSize(rw, 256<<10),
		c: rw,
	}
}

// Send implements Conn. Each message reaches the stream before Send
// returns — migration control messages are latency-sensitive (a buffered
// SUSPEND would inflate downtime) — and the payload is only borrowed: the
// caller owns it again, for reuse or release, as soon as Send returns.
// Small frames are staged into one contiguous write; large payloads go out
// as a vectored header+payload pair, which on a TCP conn is a single
// writev instead of two small writes defeating segment coalescing.
func (s *streamConn) Send(m Message) error {
	if len(m.Payload) > MaxPayload {
		return fmt.Errorf("transport: payload %d exceeds max %d", len(m.Payload), MaxPayload)
	}
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	hdr := s.hdr[:]
	hdr[0] = byte(m.Type)
	binary.LittleEndian.PutUint64(hdr[1:], m.Arg)
	binary.LittleEndian.PutUint32(hdr[9:], uint32(len(m.Payload)))
	if len(m.Payload) >= vectoredMin {
		bufs := net.Buffers{hdr, m.Payload}
		if _, err := bufs.WriteTo(s.w); err != nil {
			return fmt.Errorf("transport: send %v: %w", m.Type, err)
		}
		return nil
	}
	if s.small == nil {
		s.small = make([]byte, 0, headerLen+vectoredMin)
	}
	b := append(s.small[:0], hdr...)
	b = append(b, m.Payload...)
	if _, err := s.w.Write(b); err != nil {
		return fmt.Errorf("transport: send %v: %w", m.Type, err)
	}
	return nil
}

// Recv implements Conn.
func (s *streamConn) Recv() (Message, error) { return readMessageHdr(s.r, &s.rhdr) }

// Close implements Conn.
func (s *streamConn) Close() error { return s.c.Close() }

// Dial connects to a destination migration daemon over TCP.
func Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // control messages must not wait for Nagle
	}
	return NewStream(c), nil
}

// Listen accepts one migration connection on addr and returns it together
// with the listener's bound address (useful with ":0").
func Listen(addr string) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return l, nil
}

// Accept waits for one connection on l and wraps it as a Conn.
func Accept(l net.Listener) (Conn, error) {
	c, err := l.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return NewStream(c), nil
}

// Meter counts the wire bytes crossing a Conn in each direction. The
// migration engine reads it to report the paper's "amount of migrated data"
// metric.
type Meter struct {
	inner     Conn
	sent      atomic.Int64
	received  atomic.Int64
	sentMsgs  atomic.Int64
	recvdMsgs atomic.Int64
}

// NewMeter wraps inner with byte accounting.
func NewMeter(inner Conn) *Meter { return &Meter{inner: inner} }

// Send implements Conn.
func (m *Meter) Send(msg Message) error {
	if err := m.inner.Send(msg); err != nil {
		return err
	}
	m.sent.Add(int64(msg.FrameSize()))
	m.sentMsgs.Add(1)
	return nil
}

// Recv implements Conn.
func (m *Meter) Recv() (Message, error) {
	msg, err := m.inner.Recv()
	if err != nil {
		return msg, err
	}
	m.received.Add(int64(msg.FrameSize()))
	m.recvdMsgs.Add(1)
	return msg, nil
}

// Close implements Conn.
func (m *Meter) Close() error { return m.inner.Close() }

// BytesSent returns the cumulative wire bytes sent.
func (m *Meter) BytesSent() int64 { return m.sent.Load() }

// BytesReceived returns the cumulative wire bytes received.
func (m *Meter) BytesReceived() int64 { return m.received.Load() }

// MessagesSent returns the number of messages sent.
func (m *Meter) MessagesSent() int64 { return m.sentMsgs.Load() }

// MessagesReceived returns the number of messages received.
func (m *Meter) MessagesReceived() int64 { return m.recvdMsgs.Load() }
