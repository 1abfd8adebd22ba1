package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
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

// Stager is the optional half of a Conn that stages data frames: the
// engine opts a conn in with Stage, and calls Flush before it waits on its
// peer. A decorator forwards both to the conn it wraps; one that does not
// turns staging off below it, and every frame it passes on is written
// before Send returns.
type Stager interface {
	// Stage bounds the data frames staged below at limit bytes (at most
	// StageMax; 0 stages none) and reports whether a conn below stages.
	Stage(limit int) bool
	// Flush writes every staged frame to the stream.
	Flush() error
}

// StageMax bounds the bytes of data frames a conn stages. It is every
// stream conn's read buffer size, so one staged batch is one read on the far
// side.
const StageMax = 256 << 10

// Stage opts c into staging data frames, up to limit bytes, and reports
// whether c stages them.
func Stage(c Conn, limit int) bool {
	s, ok := c.(Stager)
	return ok && s.Stage(limit)
}

// Flush writes what c has staged. A conn that stages nothing has nothing to
// write.
func Flush(c Conn) error {
	if s, ok := c.(Stager); ok {
		return s.Flush()
	}
	return nil
}

// Socket accounting across every stream conn of the process: the writes
// that reached a stream, and the data frames sent.
var streamWrites, streamDataFrames atomic.Int64

// StreamWrites returns how many writes stream conns have issued to their
// streams and how many data frames they have sent, since the process
// started.
func StreamWrites() (writes, dataFrames int64) {
	return streamWrites.Load(), streamDataFrames.Load()
}

// streamConn frames messages over any byte stream.
type streamConn struct {
	sendMu sync.Mutex
	w      io.Writer
	r      *bufio.Reader
	c      io.Closer
	hdr    [headerLen]byte // reused send header, guarded by sendMu
	staged []byte          // data frames awaiting the next write: a pooled buffer while any wait, else nil; guarded by sendMu
	limit  int             // bytes staged may hold, guarded by sendMu; 0 stages nothing
	small  []byte          // a small frame's header and payload, copied into one piece; guarded by sendMu
	iov    [3][]byte       // one write: staged, a header, its payload; guarded by sendMu
	vec    net.Buffers     // over iov; one built per Send escapes, two objects a frame
	werr   error           // the first failed write, guarded by sendMu: the framing is lost from there
	rhdr   [headerLen]byte // reused recv header (Recv is single-consumer)
}

// vectoredMin is the payload size from which a frame that is not staged
// goes out as a vectored header+payload write (writev on a TCP conn). Below
// it, the copy into one piece is cheaper than a second iovec.
const vectoredMin = 1 << 10

// NewStream wraps a byte stream (typically a *net.TCPConn) as a Conn.
func NewStream(rw io.ReadWriteCloser) Conn {
	return &streamConn{
		w:     rw,
		r:     bufio.NewReaderSize(rw, StageMax),
		c:     rw,
		small: make([]byte, 0, headerLen+vectoredMin),
	}
}

// Send implements Conn. The payload is only borrowed: the caller owns it
// again, for reuse or release, as soon as Send returns.
//
// A frame that is not a data frame reaches the stream before Send returns,
// in one write behind whatever is staged: migration control messages are
// latency-sensitive (a buffered SUSPEND would inflate downtime). So does
// every frame on a conn nobody opted in with Stage. On an opted-in conn a
// data frame (IsDataFrame) with a payload that fits under the bound is
// copied into the staging buffer and waits for the next write; one that does
// not fit leaves at once with the staged bytes ahead of it, its payload
// never copied.
func (s *streamConn) Send(m Message) error {
	if len(m.Payload) > MaxPayload {
		return fmt.Errorf("transport: payload %d exceeds max %d", len(m.Payload), MaxPayload)
	}
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if s.werr != nil {
		return s.werr
	}
	hdr := s.hdr[:]
	hdr[0] = byte(m.Type)
	binary.LittleEndian.PutUint64(hdr[1:], m.Arg)
	binary.LittleEndian.PutUint32(hdr[9:], uint32(len(m.Payload)))
	if IsDataFrame(m.Type) {
		streamDataFrames.Add(1)
		// A frame without a payload, a zero run, is never staged: it saves
		// no copy, and for its 13 bytes the far side writes a whole extent,
		// which would wait with it while the sender reads the next one.
		if len(m.Payload) > 0 && len(s.staged)+headerLen+len(m.Payload) <= s.limit {
			if s.staged == nil {
				s.staged = GetBuf(StageMax)[:0]
			}
			s.staged = append(append(s.staged, hdr...), m.Payload...)
			return nil
		}
	}
	return s.flushLocked(hdr, m.Payload)
}

// flushLocked writes the staged bytes and then, when hdr is not nil, the
// frame of hdr and payload, in one write, and returns the staging buffer to
// the pool. It is the one place bytes reach the stream. A failed write fails
// every later Send and Flush. Caller holds sendMu.
func (s *streamConn) flushLocked(hdr, payload []byte) error {
	if s.werr != nil {
		return s.werr
	}
	if hdr != nil && len(payload) < vectoredMin {
		s.small = append(append(s.small[:0], hdr...), payload...)
		hdr, payload = s.small, nil
	}
	s.vec = s.iov[:0] // WriteTo consumes it, nil-ing what it wrote
	for _, b := range [][]byte{s.staged, hdr, payload} {
		if len(b) > 0 {
			s.vec = append(s.vec, b)
		}
	}
	var err error
	switch len(s.vec) {
	case 0:
		return nil
	case 1:
		_, err = s.w.Write(s.vec[0])
	default:
		_, err = s.vec.WriteTo(s.w)
	}
	streamWrites.Add(1)
	s.iov = [3][]byte{} // the payload is the caller's again
	PutBuf(s.staged)
	s.staged = nil
	if err != nil {
		s.werr = fmt.Errorf("transport: write: %w", err)
	}
	return s.werr
}

// Stage implements Stager.
func (s *streamConn) Stage(limit int) bool {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	s.limit = min(max(limit, 0), StageMax)
	return s.limit > 0
}

// Flush implements Stager.
func (s *streamConn) Flush() error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	return s.flushLocked(nil, nil)
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
	return wrapNet(c), nil
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
	return wrapNet(c), nil
}

// wrapNet wraps a dialled or accepted connection as a Conn.
func wrapNet(c net.Conn) Conn {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // control messages must not wait for Nagle
	}
	return NewStream(c)
}

// acceptWithin bounds l's Accepts to d from now, when d is positive and l
// takes a deadline (a TCP listener does). The returned func lifts the bound.
func acceptWithin(l net.Listener, d time.Duration) (lift func()) {
	dl, ok := l.(interface{ SetDeadline(time.Time) error })
	if !ok || d <= 0 {
		return func() {}
	}
	dl.SetDeadline(time.Now().Add(d))
	return func() { dl.SetDeadline(time.Time{}) }
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

// Stage implements Stager.
func (m *Meter) Stage(limit int) bool { return Stage(m.inner, limit) }

// Flush implements Stager.
func (m *Meter) Flush() error { return Flush(m.inner) }

// BytesSent returns the cumulative wire bytes sent.
func (m *Meter) BytesSent() int64 { return m.sent.Load() }

// BytesReceived returns the cumulative wire bytes received.
func (m *Meter) BytesReceived() int64 { return m.received.Load() }

// MessagesSent returns the number of messages sent.
func (m *Meter) MessagesSent() int64 { return m.sentMsgs.Load() }

// MessagesReceived returns the number of messages received.
func (m *Meter) MessagesReceived() int64 { return m.recvdMsgs.Load() }
