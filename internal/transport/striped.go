package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Striped fans one logical Conn across several underlying connections so the
// migration data path is no longer serialized through a single ordered
// stream. Data frames (disk blocks, extents, memory pages) are striped
// round-robin across all streams; every other frame is a control frame,
// pinned to stream 0 so the protocol's phase signals keep a total order.
//
// Ordering across streams is re-established at data↔control transitions:
// Send broadcasts one MsgStripeBarrier fence on every stream before the
// first control frame after data and before the first data frame after a
// control frame, and Recv holds each stream at its fence until every stream
// has reached it. The guarantee the engine relies on is exactly the
// single-stream one:
//
//   - every data frame sent before a control frame is received before it;
//   - every data frame sent after a control frame is received after it.
//
// Data frames between two control frames may be received in any order, which
// is safe for the migration protocol: within one pre-copy iteration each
// block and page number appears at most once (they come from a bitmap scan),
// and iteration boundaries are control frames. Runs of control frames with
// no data between them — the destination's entire pull/ack direction — pay
// no fences at all: they are FIFO on stream 0 already.
//
// Data sent concurrently with a control frame has no defined order relative
// to it, just as two concurrent Sends on any Conn are unordered; the engine
// quiesces its worker pool before sending phase signals. Only control frames
// and fences take ctl, a one-slot channel; no lock is held while a link
// carries a data frame. A sender parked behind a slow link thus waits on a
// channel, which testing/synctest counts as blocked (a mutex wait it counts
// as running, and the bubble's clock would stop).
//
// A Striped over a single stream degenerates to a transparent passthrough:
// no barrier frames, wire-identical to the seed protocol.
//
// Each stream carries its own Meter; the aggregate implements the same
// BytesSent/BytesReceived/MessagesSent/MessagesReceived view one Meter
// provides, and PerStream exposes the per-stream counters.
type Striped struct {
	streams []*Meter

	rr  atomic.Uint64 // round-robin cursor for data frames
	ctl chan struct{} // one slot, held by a control send or a fence
	seq uint64        // fences broadcast; guarded by ctl
	// dataSinceFence: a data frame went out after the last fence, so the
	// next control frame must fence first. fenceBeforeData: a control frame
	// went out, so the next data frame must fence first.
	dataSinceFence  atomic.Bool
	fenceBeforeData atomic.Bool

	recvOnce  sync.Once
	frames    chan Message
	done      chan struct{}
	closeOnce sync.Once
	bar       *recvBarrier

	// Reader-death accounting: one stream failing does not fail the logical
	// conn while other streams can still deliver (frames written before a
	// peer's close are valid and, per stream, ordered before its EOF).
	// Recv reports an error only once every reader is dead and the frame
	// buffer is drained — which makes "last control frame, then close"
	// teardowns deterministic instead of racing the idle streams' EOFs.
	deadMu   sync.Mutex
	dead     int
	firstErr error
	allDead  chan struct{}
}

// MaxStreams bounds a striped bundle: the width travels in MsgStripeHello's
// one-byte payload.
const MaxStreams = 255

// IsDataFrame reports whether a frame carries bulk migration data — the
// frames a Striped conn may reorder between control frames, and the frames
// the destination's lane pool may apply out of order. The two uses must
// agree, which is why there is exactly one copy of this predicate. A page
// delta qualifies although it is applied against the page's earlier frame: a
// page is sent at most once between two fenced control frames, so a base and
// its delta never share a fence interval.
func IsDataFrame(t MsgType) bool {
	return t == MsgBlockData || t == MsgExtent || t == MsgZeroExtent || t == MsgMemPage || t == MsgMemPageDelta || t == MsgMemPages
}

// NewStriped builds a logical connection over conns. conns[0] is the control
// stream; ownership of all conns passes to the Striped. With one conn the
// result is a transparent (but metered) passthrough.
func NewStriped(conns []Conn) *Striped {
	if len(conns) == 0 {
		panic("transport: striped over zero streams")
	}
	s := &Striped{
		streams: make([]*Meter, len(conns)),
		ctl:     make(chan struct{}, 1),
		done:    make(chan struct{}),
		allDead: make(chan struct{}),
	}
	for i, c := range conns {
		s.streams[i] = NewMeter(c)
	}
	s.bar = newRecvBarrier(len(conns))
	return s
}

// PerStream returns the per-stream meters (index 0 is the control stream).
func (s *Striped) PerStream() []*Meter { return s.streams }

// BytesSent returns wire bytes sent across all streams, barriers included.
func (s *Striped) BytesSent() int64 { return s.sum((*Meter).BytesSent) }

// BytesReceived returns wire bytes received across all streams.
func (s *Striped) BytesReceived() int64 { return s.sum((*Meter).BytesReceived) }

// MessagesSent returns frames sent across all streams, barriers included.
func (s *Striped) MessagesSent() int64 { return s.sum((*Meter).MessagesSent) }

// MessagesReceived returns frames received across all streams.
func (s *Striped) MessagesReceived() int64 { return s.sum((*Meter).MessagesReceived) }

func (s *Striped) sum(f func(*Meter) int64) int64 {
	var t int64
	for _, m := range s.streams {
		t += f(m)
	}
	return t
}

// Send implements Conn. The first data frame after a control frame, and a
// control frame after data, fence every stream under ctl first. A data frame
// sets dataSinceFence after its send, so a fence that clears it follows it.
func (s *Striped) Send(m Message) error {
	if len(s.streams) == 1 {
		return s.streams[0].Send(m)
	}
	if IsDataFrame(m.Type) {
		if s.fenceBeforeData.Load() {
			s.ctl <- struct{}{}
			var err error
			if s.fenceBeforeData.Load() { // not already fenced by a racing peer
				if err = s.fence(); err == nil {
					s.fenceBeforeData.Store(false)
				}
			}
			<-s.ctl
			if err != nil {
				return err
			}
		}
		i := int(s.rr.Add(1)-1) % len(s.streams)
		err := s.streams[i].Send(m)
		s.dataSinceFence.Store(true)
		return err
	}
	s.ctl <- struct{}{}
	defer func() { <-s.ctl }()
	if s.dataSinceFence.Swap(false) {
		if err := s.fence(); err != nil {
			return err
		}
	}
	s.fenceBeforeData.Store(true)
	return s.streams[0].Send(m)
}

// fence broadcasts one barrier frame on every stream. Caller holds ctl.
func (s *Striped) fence() error {
	s.seq++
	for i, st := range s.streams {
		if err := st.Send(Message{Type: MsgStripeBarrier, Arg: s.seq}); err != nil {
			return fmt.Errorf("transport: stripe barrier on stream %d: %w", i, err)
		}
	}
	return nil
}

// Recv implements Conn, merging the streams under the fence discipline.
// Buffered frames are always delivered before a failure is reported.
func (s *Striped) Recv() (Message, error) {
	if len(s.streams) == 1 {
		return s.streams[0].Recv()
	}
	s.recvOnce.Do(s.startReaders)
	select {
	case m := <-s.frames:
		return m, nil
	case <-s.allDead:
		select {
		case m := <-s.frames:
			return m, nil
		default:
			return Message{}, s.recvError()
		}
	case <-s.done:
		select {
		case m := <-s.frames:
			return m, nil
		default:
			return Message{}, ErrClosed
		}
	}
}

func (s *Striped) recvError() error {
	s.deadMu.Lock()
	defer s.deadMu.Unlock()
	if s.firstErr == nil {
		return ErrClosed
	}
	return s.firstErr
}

// Close implements Conn: every stream is closed and pending Recvs fail.
func (s *Striped) Close() error {
	var first error
	for _, st := range s.streams {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	if len(s.streams) > 1 {
		s.bar.abort()
		s.closeOnce.Do(func() { close(s.done) })
	}
	return first
}

// Stage implements Stager on every stream; each stages up to limit bytes.
func (s *Striped) Stage(limit int) bool {
	on := false
	for _, st := range s.streams {
		on = st.Stage(limit) || on
	}
	return on
}

// Flush implements Stager on every stream.
func (s *Striped) Flush() error {
	for i, st := range s.streams {
		if err := st.Flush(); err != nil {
			return fmt.Errorf("transport: stream %d: %w", i, err)
		}
	}
	return nil
}

func (s *Striped) startReaders() {
	s.frames = make(chan Message, 4*len(s.streams))
	for i := range s.streams {
		go s.readStream(i)
	}
}

// readerDead records one reader's exit. The barrier is aborted (a fence can
// never complete once a stream stops arriving at it), and once the last
// reader is gone, Recv starts reporting the first error.
func (s *Striped) readerDead(err error) {
	s.deadMu.Lock()
	if err != nil && s.firstErr == nil {
		s.firstErr = err
	}
	s.dead++
	last := s.dead == len(s.streams)
	s.deadMu.Unlock()
	s.bar.abort()
	if last {
		close(s.allDead)
	}
}

// readStream pumps one stream into the merge channel. At a fence frame the
// reader parks until every stream has reached the fence; by then, every
// pre-fence frame of every stream has been pushed, and no post-fence frame
// can be pushed before. Combined with sender-side fencing at data↔control
// transitions, this delivers data-before-control and control-before-data
// exactly as a single ordered stream would.
func (s *Striped) readStream(i int) {
	c := s.streams[i]
	for {
		m, err := c.Recv()
		if err != nil {
			s.readerDead(fmt.Errorf("transport: stream %d: %w", i, err))
			return
		}
		if m.Type == MsgStripeBarrier {
			if !s.bar.await() {
				s.readerDead(nil) // fence aborted: this stream stops delivering
				return
			}
			continue
		}
		if !s.push(m) {
			s.readerDead(nil) // conn closed under us
			return
		}
	}
}

// push delivers one frame, returning false if the conn closed meanwhile.
func (s *Striped) push(m Message) bool {
	select {
	case s.frames <- m:
		return true
	case <-s.done:
		return false
	}
}

// recvBarrier is a reusable symmetric barrier for the per-stream readers:
// each fence completes when all n readers have arrived, releasing them
// together into the next phase.
type recvBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	phase   uint64
	aborted bool
}

func newRecvBarrier(n int) *recvBarrier {
	b := &recvBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await parks the caller at the current fence until all n readers arrive.
// Returns false if the barrier was aborted.
func (b *recvBarrier) await() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.phase++
		b.cond.Broadcast()
		return !b.aborted
	}
	p := b.phase
	for b.phase == p && !b.aborted {
		b.cond.Wait()
	}
	return !b.aborted
}

// abort permanently unblocks the barrier; all waiters return false.
func (b *recvBarrier) abort() {
	b.mu.Lock()
	b.aborted = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// DialStriped opens n TCP connections to addr and bundles them as one
// Striped conn. Every connection — stream 0, and a one-wide bundle's only
// one, included — opens with a raw MsgStripeHello label (stream index in
// Arg, width in the payload), so the acceptor learns the width from the
// first label and reassembles the bundle in any accept order. wrap, when
// non-nil, decorates each connection (e.g. with compression) after its label
// is sent; both endpoints must wrap symmetrically. On error every connection
// is closed.
func DialStriped(addr string, n int, wrap func(Conn) (Conn, error)) (*Striped, error) {
	if n < 1 || n > MaxStreams {
		return nil, fmt.Errorf("transport: dial striped: %d streams outside [1,%d]", n, MaxStreams)
	}
	conns := make([]Conn, 0, n)
	fail := func(err error) (*Striped, error) {
		for _, c := range conns {
			c.Close()
		}
		return nil, err
	}
	for i := range n {
		c, err := Dial(addr)
		if err != nil {
			return fail(err)
		}
		conns = append(conns, c)
		if err := c.Send(stripeHello(i, n)); err != nil {
			return fail(fmt.Errorf("transport: stripe hello %d: %w", i, err))
		}
		if wrap != nil {
			w, err := wrap(c)
			if err != nil {
				return fail(err)
			}
			conns[i] = w
		}
	}
	return NewStriped(conns), nil
}

// stripeHello labels stream idx of an n-wide bundle.
func stripeHello(idx, n int) Message {
	return Message{Type: MsgStripeHello, Arg: uint64(idx), Payload: []byte{byte(n)}}
}

// parseStripeHello reads one connection's label: a MsgStripeHello whose
// 1-byte payload names a width in [1, MaxStreams] and whose Arg names an
// index below it.
func parseStripeHello(m Message) (idx, total int, err error) {
	if m.Type != MsgStripeHello || len(m.Payload) != 1 {
		return 0, 0, fmt.Errorf("transport: expected STRIPE_HELLO, got %v", m.Type)
	}
	total = int(m.Payload[0])
	if total < 1 || total > MaxStreams || m.Arg >= uint64(total) {
		return 0, 0, fmt.Errorf("transport: stripe hello idx=%d total=%d inconsistent", m.Arg, total)
	}
	return int(m.Arg), total, nil
}

// bundleWait bounds the wait for each further connection of a bundle once a
// label has named its width: a sender that died after its first streams must
// not park the acceptor forever.
var bundleWait = 10 * time.Second

// AcceptStriped accepts one striped bundle on l: the first connection's
// MsgStripeHello names the width, and further connections are accepted, each
// within bundleWait of the last, until every index is present. wrap mirrors
// DialStriped's. On error every accepted connection is closed.
func AcceptStriped(l net.Listener, wrap func(Conn) (Conn, error)) (*Striped, error) {
	var conns []Conn // by stream index, sized by the first label
	fail := func(err error) (*Striped, error) {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		return nil, err
	}
	lift := func() {}
	defer func() { lift() }()
	for got := 0; got == 0 || got < len(conns); got++ {
		c, err := Accept(l)
		if err != nil {
			return fail(err)
		}
		m, err := c.Recv()
		if err != nil {
			c.Close()
			return fail(fmt.Errorf("transport: stripe hello: %w", err))
		}
		idx, total, err := parseStripeHello(m)
		m.Release()
		switch {
		case err != nil:
		case conns == nil:
			conns = make([]Conn, total)
		case total != len(conns):
			err = fmt.Errorf("transport: stripe hello names %d streams, bundle has %d", total, len(conns))
		case conns[idx] != nil:
			err = fmt.Errorf("transport: duplicate stripe index %d", idx)
		}
		if err == nil && wrap != nil {
			var w Conn
			if w, err = wrap(c); err == nil {
				c = w
			}
		}
		if err != nil {
			c.Close()
			return fail(err)
		}
		conns[idx] = c
		lift = acceptWithin(l, bundleWait)
	}
	return NewStriped(conns), nil
}
