package transport

import (
	"sync"
	"time"
)

// Latent models the per-frame cost of a real migration link: every frame
// occupies the link for a fixed stall on top of whatever the inner Conn
// costs, standing in for the synchronous per-message flush — syscall, NIC
// doorbell, completion — that the paper's blkd pays on every block message.
// Loopback transports hide this cost almost entirely (a loopback flush is
// ~1 µs, a real one tens of µs), which makes per-block transfer look
// artificially competitive in-process.
//
// Concurrent Sends on one Latent serialize through the link occupancy,
// exactly as frames on one ordered stream serialize through its flush;
// wrapping each connection of a Striped bundle in its own Latent lets the
// stalls of different streams overlap, which is the mechanism by which
// striping hides per-frame latency. Recv is passed through untouched.
//
// The accounting is cumulative: a sender is put to sleep only once it is at
// least a scheduler quantum behind the modelled link, so the model stays
// accurate for stalls far below the platform timer granularity.
type Latent struct {
	inner Conn
	stall time.Duration
	bps   int64 // serialization rate in bytes/second (0 = infinite, LAN model)

	mu       sync.Mutex
	nextFree time.Time // when the link has drained all queued frames
}

// latentQuantum is the smallest sleep worth issuing: below this the timer
// granularity would distort the model more than bursting does.
const latentQuantum = time.Millisecond

// NewWAN wraps inner in a wide-area link profile: each Send occupies the
// link for stall (the one-way propagation delay — half the RTT, so one
// request/reply round trip costs a full RTT) plus the frame's serialization
// time at bytesPerSec. Asymmetric links are modelled by wrapping each
// direction's sending side in its own NewWAN with that direction's rate —
// Latent only ever delays Send, so the uplink and downlink profiles never
// interfere. bytesPerSec <= 0 keeps a pure per-frame stall: the LAN model.
func NewWAN(inner Conn, stall time.Duration, bytesPerSec int64) *Latent {
	return &Latent{inner: inner, stall: stall, bps: bytesPerSec}
}

// Send implements Conn.
func (l *Latent) Send(m Message) error {
	occupy := l.stall
	if l.bps > 0 {
		occupy += time.Duration(float64(m.FrameSize()) / float64(l.bps) * float64(time.Second))
	}
	l.mu.Lock()
	now := time.Now()
	if l.nextFree.Before(now) {
		l.nextFree = now
	}
	l.nextFree = l.nextFree.Add(occupy)
	wait := l.nextFree.Sub(now)
	l.mu.Unlock()
	if wait >= latentQuantum {
		time.Sleep(wait)
	}
	return l.inner.Send(m)
}

// Recv implements Conn.
func (l *Latent) Recv() (Message, error) { return l.inner.Recv() }

// Close implements Conn.
func (l *Latent) Close() error { return l.inner.Close() }
