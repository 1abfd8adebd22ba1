package transport

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"
)

// DefaultResumeWait is the suggested AcceptResume timeout for daemon
// layers: long enough for a source's full exponential backoff ladder, short
// enough that a permanently dead source releases the destination.
const DefaultResumeWait = 2 * time.Minute

// This file is the transport half of resumable migration: session tokens,
// the raw resume/ack frame exchange that precedes a rebound connection, and
// the error classification that separates retryable link failures from
// protocol errors.

// SessionToken identifies one resumable migration across reconnects. It is
// minted by the source, carried in the extended HELLO payload, and echoed in
// every MsgSessionResume so the accepting layer can route a fresh connection
// to the interrupted session.
type SessionToken [16]byte

// NewSessionToken mints a random token.
func NewSessionToken() (SessionToken, error) {
	var t SessionToken
	if _, err := rand.Read(t[:]); err != nil {
		return t, fmt.Errorf("transport: session token: %w", err)
	}
	return t, nil
}

// TokenFromBytes parses a 16-byte token payload.
func TokenFromBytes(b []byte) (SessionToken, error) {
	var t SessionToken
	if len(b) != len(t) {
		return t, fmt.Errorf("transport: session token %d bytes, want %d", len(b), len(t))
	}
	copy(t[:], b)
	return t, nil
}

// ResumeFrame builds the raw first frame of a reconnecting source.
func ResumeFrame(token SessionToken, epoch uint32) Message {
	return Message{Type: MsgSessionResume, Arg: uint64(epoch), Payload: token[:]}
}

// ParseResume validates a MsgSessionResume frame against the expected token
// and the last seen epoch, returning the frame's epoch.
func ParseResume(m Message, token SessionToken, lastEpoch uint32) (uint32, error) {
	if m.Type != MsgSessionResume {
		return 0, fmt.Errorf("transport: expected SESSION_RESUME, got %v", m.Type)
	}
	got, err := TokenFromBytes(m.Payload)
	if err != nil {
		return 0, err
	}
	if got != token {
		return 0, errors.New("transport: session token mismatch")
	}
	epoch := uint32(m.Arg)
	if epoch <= lastEpoch {
		return 0, fmt.Errorf("transport: stale session epoch %d (have %d)", epoch, lastEpoch)
	}
	return epoch, nil
}

// AcceptResume accepts connections from l until one opens with a valid
// MsgSessionResume for token, returning it with the frame's epoch.
// Non-matching connections are closed and the wait continues — a dest-side
// layer parks here while its engine waits to be rebound. A positive timeout
// bounds the whole wait (via the listener's deadline, when it has one, and
// each connection's read deadline for its first frame), so neither a source
// that died for good nor a client that connects and says nothing can park
// the destination forever while this loop eats every unrelated connection
// the listener receives.
func AcceptResume(l net.Listener, token SessionToken, lastEpoch uint32, timeout time.Duration) (Conn, uint32, error) {
	defer acceptWithin(l, timeout)()
	var deadline time.Time // zero: no bound
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		c, err := l.Accept()
		if err != nil {
			return nil, 0, fmt.Errorf("transport: accept: %w", err)
		}
		c.SetReadDeadline(deadline)
		conn := wrapNet(c)
		m, err := conn.Recv()
		if err != nil {
			conn.Close()
			continue
		}
		epoch, err := ParseResume(m, token, lastEpoch)
		m.Release() // the token is compared, the epoch copied out
		if err != nil {
			conn.Close()
			continue
		}
		c.SetReadDeadline(time.Time{})
		return conn, epoch, nil
	}
}

// Swappable is a Conn whose underlying connection can be replaced after a
// reconnect. A resumable migration builds its decorator stack (meter,
// compression) above one Swappable, so metering and compression state survive
// the rebind while the dead link below is swapped out. The caller must quiesce
// its own send path before Rebind; a racing operation on the old connection
// simply fails and is retried by the resume machinery.
type Swappable struct {
	cur   atomic.Pointer[Conn]
	limit atomic.Int64 // the staging bound the engine asked for, passed on to every rebound conn
}

// NewSwappable wraps c.
func NewSwappable(c Conn) *Swappable {
	s := &Swappable{}
	s.cur.Store(&c)
	return s
}

// Rebind replaces the underlying connection, closing the old one (and
// what it staged). The new one stages as the old one was asked to.
func (s *Swappable) Rebind(c Conn) {
	Stage(c, int(s.limit.Load()))
	(*s.cur.Swap(&c)).Close()
}

// Current returns the live underlying connection.
func (s *Swappable) Current() Conn { return *s.cur.Load() }

// Send implements Conn.
func (s *Swappable) Send(m Message) error { return s.Current().Send(m) }

// Recv implements Conn.
func (s *Swappable) Recv() (Message, error) { return s.Current().Recv() }

// Close implements Conn.
func (s *Swappable) Close() error { return s.Current().Close() }

// Stage implements Stager.
func (s *Swappable) Stage(limit int) bool {
	s.limit.Store(int64(limit))
	return Stage(s.Current(), limit)
}

// Flush implements Stager.
func (s *Swappable) Flush() error { return Flush(s.Current()) }

// IsConnError reports whether err looks like a connection failure — the
// retryable class a resumable migration survives — as opposed to a protocol
// or device error, which aborts. Injected faults, closed pipes, EOFs, and
// net-layer errors all count.
func IsConnError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrInjected) || errors.Is(err, ErrClosed) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error // *net.OpError among them
	return errors.As(err, &ne)
}
