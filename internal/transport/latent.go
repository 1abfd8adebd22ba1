package transport

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Latent models the per-frame cost of a real migration link: every frame
// occupies the link for a fixed stall on top of its serialisation time,
// standing in for what the paper's blkd pays on every block message —
// syscall, NIC doorbell, completion — which loopback hides almost entirely.
// Latent is not a Stager, so nothing below it stages: its timing is the model.
//
// The link is one queue with its own clock: frame k reaches the inner Conn at
// due[k] = max(due[k-1], sent[k]) + stall + FrameSize/rate, sent[k] being
// when Send was called, so a late wake-up delays only its own frame and in a
// testing/synctest bubble every frame is charged exactly. Send copies the
// frame into the queue and returns, waiting only while the link is more than
// latentBuffer behind, as a write waits on a full socket buffer. A Striped
// bundle shares one link: each stream gets its own Latent at its share of
// the rate, and overlaps its stalls with the others', which is how striping
// hides per-frame latency. Recv is passed through untouched.
type Latent struct {
	inner Conn
	stall time.Duration
	bps   int64 // serialisation rate in bytes/second (0 = infinite, LAN model)

	q       chan latentFrame
	closing chan struct{} // closed by Close
	once    sync.Once
	err     atomic.Pointer[error] // the first failed delivery, returned by every later Send

	mu   sync.Mutex
	tail time.Time // when the link will have delivered every frame sent so far
}

type latentFrame struct {
	m   Message // a pooled copy, or an empty payload
	due time.Time
}

// latentBuffer is the socket buffer, in time: how far the link may run behind
// its senders. It covers a timer firing a millisecond late, so the link still
// has frames queued when its delivery goroutine or a sender wakes late.
const latentBuffer = 2 * time.Millisecond

// NewWAN wraps inner in a wide-area link profile: each Send occupies the
// link for stall plus the frame's serialisation time at bytesPerSec. The
// stall is per-frame occupancy, not propagation delay: frames queue behind
// it, so no window of requests overlaps it. Asymmetric links are modelled by
// wrapping each direction's sending side in its own NewWAN with that
// direction's rate — Latent only ever delays Send, so the uplink and downlink
// profiles never interfere. bytesPerSec <= 0 keeps a pure per-frame stall.
func NewWAN(inner Conn, stall time.Duration, bytesPerSec int64) *Latent {
	l := &Latent{inner: inner, stall: stall, bps: bytesPerSec,
		q: make(chan latentFrame, 16), closing: make(chan struct{})} // 16 bounds a stall-free link
	go l.deliver()
	return l
}

// Send implements Conn; it borrows m's payload. A failed delivery surfaces
// on the next Send, as on a socket's next write; one after the last is lost.
func (l *Latent) Send(m Message) error {
	if len(m.Payload) > MaxPayload {
		return errors.New("transport: payload too large")
	}
	if err := l.err.Load(); err != nil {
		return *err
	}
	select {
	case <-l.closing:
		return ErrClosed
	default:
	}
	occupy := l.stall
	if l.bps > 0 {
		occupy += time.Duration(int64(m.FrameSize()) * int64(time.Second) / l.bps)
	}
	l.mu.Lock()
	now := time.Now()
	behind := max(l.tail.Sub(now), 0)
	l.tail = now.Add(behind + occupy)
	f := latentFrame{m: m, due: l.tail}
	l.mu.Unlock()
	if len(m.Payload) > 0 {
		f.m.Payload = GetBuf(len(m.Payload))
		copy(f.m.Payload, m.Payload)
	} else if m.Payload != nil {
		f.m.Payload = []byte{} // not the caller's: a pipe passes it on as is
	}
	if behind > latentBuffer {
		time.Sleep(behind - latentBuffer)
	}
	select {
	case l.q <- f:
		return nil
	case <-l.closing:
		PutBuf(f.m.Payload)
		return ErrClosed
	}
}

// deliver is the link: it hands each queued frame to the inner Conn when due,
// and once Close is called, what is still queued, then closes the inner Conn.
func (l *Latent) deliver() {
	for {
		var f latentFrame
		select {
		case f = <-l.q:
		case <-l.closing:
			select {
			case f = <-l.q: // sent before Close
			default:
				l.inner.Close()
				return
			}
		}
		spinUntil(f.due)
		time.Sleep(time.Until(f.due))
		if l.err.Load() == nil {
			var err error
			if pipe, ok := l.inner.(*pipeConn); ok {
				err = pipe.sendOwned(f.m) // the pipe keeps the copy
				f.m.Payload = nil
			} else {
				err = l.inner.Send(f.m)
			}
			if err != nil {
				failed := err // only a failure escapes
				l.err.Store(&failed)
			}
		}
		PutBuf(f.m.Payload)
	}
}

// spinUntil sleeps to within a millisecond of due, then yields the processor
// until due: a timer fires up to a millisecond late on an idle host, which
// would add a millisecond to every hop of a request/reply exchange. In a
// synctest bubble the clock stands still across a yield, so it stops at once
// and the caller's exact sleep does the rest.
func spinUntil(due time.Time) {
	if wait := time.Until(due); wait > time.Millisecond {
		time.Sleep(wait - time.Millisecond)
	}
	for prev, now := (time.Time{}), time.Now(); now.Before(due) && !now.Equal(prev); prev, now = now, time.Now() {
		runtime.Gosched()
	}
}

// Recv implements Conn.
func (l *Latent) Recv() (Message, error) { return l.inner.Recv() }

// Close implements Conn. Like closing a socket it returns at once: frames
// already sent still reach the peer when due, then the inner Conn closes and
// the delivery goroutine exits. It does not wait for that: a frame may wait
// on a peer that has stopped reading until the peer's own Close, which a
// runner hanging up both ends makes next.
func (l *Latent) Close() error {
	l.once.Do(func() { close(l.closing) })
	return nil
}
