package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"
)

// stripedPipes returns two connected Striped ends over n in-process pipes.
func stripedPipes(n, buffer int) (*Striped, *Striped) {
	a := make([]Conn, n)
	b := make([]Conn, n)
	for i := range a {
		a[i], b[i] = NewPipe(buffer)
	}
	return NewStriped(a), NewStriped(b)
}

func TestStripedSingleStreamPassthrough(t *testing.T) {
	s, r := stripedPipes(1, 8)
	defer s.Close()
	defer r.Close()
	// A control frame over one stream must not grow any barrier frames:
	// the single-stream configuration stays wire-identical to the seed.
	if err := s.Send(Message{Type: MsgSuspend}); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(Message{Type: MsgBlockData, Arg: 7, Payload: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if got := s.MessagesSent(); got != 2 {
		t.Fatalf("single-stream striped sent %d frames for 2 messages", got)
	}
	m, err := r.Recv()
	if err != nil || m.Type != MsgSuspend {
		t.Fatalf("recv %v %v", m, err)
	}
	m, err = r.Recv()
	if err != nil || m.Type != MsgBlockData || m.Arg != 7 {
		t.Fatalf("recv %v %v", m, err)
	}
}

// TestStripedControlOrdering checks the barrier guarantee: every data frame
// sent before a control frame is received before it, and every data frame
// sent after is received after it — across many phases and streams.
func TestStripedControlOrdering(t *testing.T) {
	const streams = 4
	const phases = 20
	const perPhase = 37
	s, r := stripedPipes(streams, 4)
	defer s.Close()
	defer r.Close()

	go func() {
		for ph := 0; ph < phases; ph++ {
			for i := 0; i < perPhase; i++ {
				payload := make([]byte, 8)
				binary.LittleEndian.PutUint64(payload, uint64(ph))
				if err := s.Send(Message{Type: MsgBlockData, Arg: uint64(i), Payload: payload}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
			if err := s.Send(Message{Type: MsgIterEnd, Arg: uint64(ph)}); err != nil {
				t.Errorf("control send: %v", err)
				return
			}
		}
	}()

	for ph := 0; ph < phases; ph++ {
		seen := 0
		for {
			m, err := r.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m.Type == MsgIterEnd {
				if int(m.Arg) != ph {
					t.Fatalf("phase %d closed by control %d", ph, m.Arg)
				}
				if seen != perPhase {
					t.Fatalf("phase %d: control arrived after %d/%d data frames", ph, seen, perPhase)
				}
				break
			}
			if got := binary.LittleEndian.Uint64(m.Payload); int(got) != ph {
				t.Fatalf("phase %d received frame from phase %d", ph, got)
			}
			seen++
		}
	}
}

// TestStripedConcurrentSendRace hammers Send from many goroutines — the
// shape of the engine's worker pool — with interleaved control frames from
// a coordinator. Run under -race.
func TestStripedConcurrentSendRace(t *testing.T) {
	const streams = 3
	const workers = 8
	const rounds = 5
	const perWorker = 50
	s, r := stripedPipes(streams, 8)
	defer s.Close()
	defer r.Close()

	recvDone := make(chan int, 1)
	go func() {
		data, controls := 0, 0
		for controls < rounds {
			m, err := r.Recv()
			if err != nil {
				t.Errorf("recv: %v", err)
				break
			}
			if m.Type == MsgIterEnd {
				controls++
			} else {
				data++
			}
		}
		recvDone <- data
	}()

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					if err := s.Send(Message{Type: MsgBlockData, Arg: uint64(w*1000 + i), Payload: []byte{byte(w)}}); err != nil {
						t.Errorf("worker send: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Wait() // quiesce the pool before the phase signal, like the engine
		if err := s.Send(Message{Type: MsgIterEnd, Arg: uint64(round)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := <-recvDone; got != rounds*workers*perWorker {
		t.Fatalf("received %d data frames, want %d", got, rounds*workers*perWorker)
	}
}

func TestStripedMeterAggregation(t *testing.T) {
	s, r := stripedPipes(4, 8)
	defer s.Close()
	defer r.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 9; i++ {
			if _, err := r.Recv(); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 8; i++ {
		if err := s.Send(Message{Type: MsgBlockData, Arg: uint64(i), Payload: make([]byte, 16)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Send(Message{Type: MsgPushDone}); err != nil {
		t.Fatal(err)
	}
	<-done
	// 8 data + 1 control + 4 barriers; data round-robins so every stream
	// carried exactly 2 data frames plus 1 barrier, stream 0 also the
	// control.
	if got := s.MessagesSent(); got != 13 {
		t.Fatalf("aggregate MessagesSent = %d, want 13", got)
	}
	per := s.PerStream()
	if len(per) != 4 {
		t.Fatalf("PerStream len %d", len(per))
	}
	for i, m := range per {
		want := int64(3) // 2 data + 1 barrier
		if i == 0 {
			want = 4 // + control
		}
		if got := m.MessagesSent(); got != want {
			t.Fatalf("stream %d sent %d frames, want %d", i, got, want)
		}
	}
	wantBytes := s.BytesSent()
	if got := r.BytesReceived(); got != wantBytes {
		t.Fatalf("receiver counted %d bytes, sender %d", got, wantBytes)
	}
}

func TestStripedCloseUnblocksRecv(t *testing.T) {
	s, r := stripedPipes(3, 4)
	errCh := make(chan error, 1)
	go func() {
		_, err := r.Recv()
		errCh <- err
	}()
	s.Close()
	r.Close()
	if err := <-errCh; err == nil {
		t.Fatal("Recv survived close")
	}
}

// TestStripedPeerCloseFailsConn: one underlying stream dying must fail the
// logical conn (and unpark readers waiting at a barrier) instead of hanging.
func TestStripedPeerCloseFailsConn(t *testing.T) {
	a := make([]Conn, 3)
	b := make([]Conn, 3)
	for i := range a {
		a[i], b[i] = NewPipe(4)
	}
	s := NewStriped(a)
	r := NewStriped(b)
	defer s.Close()
	defer r.Close()

	// Park the receiver's readers at a barrier that stream 2 never joins:
	// kill stream 2 mid-fence and require an error, not a deadlock.
	if err := a[0].Send(Message{Type: MsgStripeBarrier, Arg: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a[1].Send(Message{Type: MsgStripeBarrier, Arg: 1}); err != nil {
		t.Fatal(err)
	}
	a[2].Close()
	if _, err := r.Recv(); err == nil {
		t.Fatal("expected stream failure")
	}
}

func TestDialAcceptStriped(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type acceptOut struct {
		c   *Striped
		err error
	}
	accCh := make(chan acceptOut, 1)
	go func() {
		c, err := AcceptStriped(l, nil)
		accCh <- acceptOut{c, err}
	}()
	s, err := DialStriped(l.Addr().String(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out := <-accCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	r := out.c
	defer r.Close()
	if n := len(r.PerStream()); n != 4 {
		t.Fatalf("accepted %d streams", n)
	}

	// Exercise data + control both ways over real TCP.
	const frames = 100
	go func() {
		for i := 0; i < frames; i++ {
			payload := make([]byte, 64)
			payload[0] = byte(i)
			if err := s.Send(Message{Type: MsgBlockData, Arg: uint64(i), Payload: payload}); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
		if err := s.Send(Message{Type: MsgPushDone}); err != nil {
			t.Errorf("send control: %v", err)
		}
	}()
	got := 0
	for {
		m, err := r.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == MsgPushDone {
			break
		}
		got++
	}
	if got != frames {
		t.Fatalf("received %d data frames before control, want %d", got, frames)
	}
	if err := r.Send(Message{Type: MsgDone}); err != nil {
		t.Fatal(err)
	}
	if m, err := s.Recv(); err != nil || m.Type != MsgDone {
		t.Fatalf("reply: %v %v", m, err)
	}
}

func TestDialStripedWithCompression(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	wrap := func(c Conn) (Conn, error) { return NewCompressed(c, 6) }
	accCh := make(chan *Striped, 1)
	go func() {
		c, err := AcceptStriped(l, wrap)
		if err != nil {
			t.Error(err)
			accCh <- nil
			return
		}
		accCh <- c
	}()
	s, err := DialStriped(l.Addr().String(), 2, wrap)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := <-accCh
	if r == nil {
		t.FailNow()
	}
	defer r.Close()
	payload := make([]byte, 4096) // zeros: maximally compressible
	if err := s.Send(Message{Type: MsgBlockData, Arg: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(Message{Type: MsgIterEnd, Arg: 1}); err != nil {
		t.Fatal(err)
	}
	m, err := r.Recv()
	if err != nil || m.Type != MsgBlockData || len(m.Payload) != 4096 {
		t.Fatalf("recv %v %v", m, err)
	}
	for _, b := range m.Payload {
		if b != 0 {
			t.Fatal("payload corrupted through compression")
		}
	}
	if m, err = r.Recv(); err != nil || m.Type != MsgIterEnd {
		t.Fatalf("recv control %v %v", m, err)
	}
}

// TestAcceptStripedGivesUpOnDeadSender: a 2-wide sender labels stream 0 and
// dies. The acceptor must fail within bundleWait, not wait forever for
// stream 1, and the listener must come back without a deadline.
func TestAcceptStripedGivesUpOnDeadSender(t *testing.T) {
	defer func(w time.Duration) { bundleWait = w }(bundleWait)
	bundleWait = 100 * time.Millisecond
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := AcceptStriped(l, nil)
		errCh <- err
	}()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(stripeHello(0, 2)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("a half bundle was accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AcceptStriped still waiting for stream 1 of a dead sender")
	}

	// The deadline is lifted: a one-wide bundle dialed after the wait is
	// accepted however long it takes to arrive.
	late := 2 * bundleWait // read here: the deferred restore races a read on the dialer
	go func() {
		time.Sleep(late)
		if s, err := DialStriped(l.Addr().String(), 1, nil); err == nil {
			s.Close()
		}
	}()
	s, err := AcceptStriped(l, nil)
	if err != nil {
		t.Fatalf("accept after a given-up bundle: %v", err)
	}
	s.Close()
}

// FuzzStripeHello feeds the bundle label parser, the first thing a
// migration's acceptor reads off each connection. It never panics, and a
// label it accepts re-encodes to exactly the frame it read.
func FuzzStripeHello(f *testing.F) {
	frame := func(m Message) []byte {
		b, err := encode(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(frame(stripeHello(0, 1)))
	f.Add(frame(stripeHello(3, 4)))
	f.Add(frame(stripeHello(254, MaxStreams)))
	f.Add(frame(Message{Type: MsgStripeHello, Arg: 4, Payload: []byte{4}}))         // index past the width
	f.Add(frame(Message{Type: MsgStripeHello, Payload: []byte{0}}))                 // width 0
	f.Add(frame(Message{Type: MsgStripeHello, Payload: []byte{2, 0}}))              // 2-byte payload
	f.Add(frame(Message{Type: MsgHello, Arg: ProtocolVersion, Payload: []byte{1}})) // an engine HELLO
	f.Add(frame(Message{Type: MsgStripeHello, Arg: 1 << 63, Payload: []byte{2}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readMessageHdr(bytes.NewReader(data), new([headerLen]byte))
		if err != nil {
			return
		}
		defer m.Release()
		idx, total, err := parseStripeHello(m)
		if err != nil {
			return
		}
		if total < 1 || total > MaxStreams || idx < 0 || idx >= total {
			t.Fatalf("accepted label idx=%d total=%d", idx, total)
		}
		again, err := encode(nil, stripeHello(idx, total))
		if err != nil || !bytes.Equal(again, data[:m.FrameSize()]) {
			t.Fatalf("accepted label re-encodes differently (%v)", err)
		}
	})
}

func TestExtentArgRoundTrip(t *testing.T) {
	for _, c := range []struct{ start, count int }{
		{0, 1}, {1, 1}, {1 << 30, 4096}, {(1 << 40) - 1, MaxExtentBlocks},
	} {
		s, n := ExtentSplit(ExtentArg(c.start, c.count))
		if s != c.start || n != c.count {
			t.Fatalf("round trip (%d,%d) -> (%d,%d)", c.start, c.count, s, n)
		}
	}
	for _, bad := range []struct{ start, count int }{
		{-1, 1}, {0, 0}, {0, MaxExtentBlocks + 1}, {1 << 40, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ExtentArg(%d,%d) did not panic", bad.start, bad.count)
				}
			}()
			ExtentArg(bad.start, bad.count)
		}()
	}
}

func TestStripedZeroStreamsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewStriped(nil) did not panic")
		}
	}()
	NewStriped(nil)
}

func ExampleStriped() {
	s, r := stripedPipes(2, 4)
	defer s.Close()
	defer r.Close()
	s.Send(Message{Type: MsgBlockData, Arg: 3, Payload: []byte("abc")})
	s.Send(Message{Type: MsgIterEnd, Arg: 1})
	m1, _ := r.Recv()
	m2, _ := r.Recv()
	fmt.Println(m1.Type, m2.Type)
	// Output: BLOCK_DATA ITER_END
}

// TestLatentCloseDeliversQueued: a frame sent just before Close still
// reaches the peer, ahead of the close — the engine's failure path sends its
// ERROR and hangs up at once, and the peer must read the cause, not a closed
// connection.
func TestLatentCloseDeliversQueued(t *testing.T) {
	a, b := NewPipe(64)
	l := NewWAN(a, 40*time.Microsecond, 125e6)
	defer b.Close()
	if err := l.Send(Message{Type: MsgError, Payload: []byte("disk full")}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	m, err := b.Recv()
	if err != nil || m.Type != MsgError || string(m.Payload) != "disk full" {
		t.Fatalf("peer received %v %q, %v; want the ERROR sent before Close", m.Type, m.Payload, err)
	}
	if _, err := b.Recv(); err != ErrClosed {
		t.Fatalf("peer Recv after the ERROR: %v, want ErrClosed", err)
	}
}

func TestLatentAccountsLinkTime(t *testing.T) {
	a, b := NewPipe(64)
	const stall = 2 * time.Millisecond
	l := NewWAN(a, stall, 0)
	defer l.Close()
	defer b.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			if _, err := b.Recv(); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
		}
	}()
	start := time.Now()
	for i := 0; i < 10; i++ {
		if err := l.Send(Message{Type: MsgBlockData, Arg: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if elapsed := time.Since(start); elapsed < 10*stall {
		t.Fatalf("10 frames crossed a %v-per-frame link in %v", stall, elapsed)
	}
}
