package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// recorder is a byte stream that keeps the slice of every Write it is handed,
// so a test sees where a conn's writes fall and whether a payload was copied.
type recorder struct {
	bytes.Buffer
	writes [][]byte
	fail   error
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.fail != nil {
		return 0, r.fail
	}
	r.writes = append(r.writes, p)
	return r.Buffer.Write(p)
}

func (*recorder) Close() error { return nil }

// tcpPair is one loopback TCP connection's two ends.
func tcpPair(t *testing.T) (Conn, Conn) {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	acc := make(chan Conn, 1)
	go func() {
		c, _ := Accept(l)
		acc <- c
	}()
	a, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := <-acc
	if b == nil {
		t.Fatal("loopback accept failed")
	}
	return a, b
}

// recvWithin is Recv under a watchdog: a frame that has not arrived after d
// closes c, and the test fails naming what it waited for.
func recvWithin(t *testing.T, c Conn, d time.Duration, what string) Message {
	t.Helper()
	watchdog := time.AfterFunc(d, func() { c.Close() })
	defer watchdog.Stop()
	m, err := c.Recv()
	if err != nil {
		t.Fatalf("%s never arrived: %v", what, err)
	}
	return m
}

// TestUnstagedDataFrameLeavesAtOnce is the frame ladder's shape: over a bare
// Dial pair nobody opted in, a data frame is on the socket when Send
// returns, so a peer that waits for it gets it without another Send.
func TestUnstagedDataFrameLeavesAtOnce(t *testing.T) {
	a, b := tcpPair(t)
	defer a.Close()
	defer b.Close()
	if err := a.Send(Message{Type: MsgBlockData, Arg: 1, Payload: make([]byte, 4096)}); err != nil {
		t.Fatal(err)
	}
	if m := recvWithin(t, b, 5*time.Second, "an unstaged BLOCK_DATA"); m.Type != MsgBlockData || m.Arg != 1 {
		t.Fatalf("got %v %d", m.Type, m.Arg)
	}
}

// TestStagingKeepsTheByteStream sends one mixed frame sequence through a conn
// nobody opted in and through a staged one: the bytes are identical, only
// the writes that carry them differ. Data frames with a payload wait, every
// other frame (a zero run included) takes the batch ahead of it along in the
// same write, and Flush writes what is left.
func TestStagingKeepsTheByteStream(t *testing.T) {
	payload := make([]byte, 3*vectoredMin)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	msgs := []Message{
		{Type: MsgIterStart, Arg: 1},
		{Type: MsgBlockData, Arg: 2, Payload: payload[:vectoredMin]},
		{Type: MsgZeroExtent, Arg: ExtentArg(3, 4)},
		{Type: MsgExtent, Arg: ExtentArg(8, 1), Payload: payload},
		{Type: MsgIterEnd, Arg: 3},
		{Type: MsgMemPage, Arg: 4, Payload: payload[:vectoredMin-1]},
		{Type: MsgBitmap, Payload: payload},
		{Type: MsgMemPages, Arg: ExtentArg(0, 2), Payload: payload},
	}
	plain, staged := &recorder{}, &recorder{}
	pc, sc := NewStream(plain), NewStream(staged)
	if Stage(pc, 0) || !Stage(sc, StageMax) {
		t.Fatal("Stage reports staging wrongly")
	}
	for _, m := range msgs {
		before := staged.Len()
		if err := pc.Send(m); err != nil {
			t.Fatal(err)
		}
		if err := sc.Send(m); err != nil {
			t.Fatal(err)
		}
		if grew, waits := staged.Len() > before, IsDataFrame(m.Type) && len(m.Payload) > 0; grew == waits {
			t.Fatalf("%v: staged conn wrote %v, want a write exactly for a frame that is not data or has no payload", m.Type, grew)
		}
	}
	if staged.Len() == plain.Len() {
		t.Fatal("the trailing data frame was not staged")
	}
	if err := Flush(sc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(staged.Bytes(), plain.Bytes()) {
		t.Fatalf("staged conn wrote %d bytes differing from the unstaged conn's %d", staged.Len(), plain.Len())
	}
}

// TestStageBound fills a conn staged at three frames: the fourth frame would
// pass the bound, so it leaves with the three ahead of it, its payload handed
// to the stream in place, never copied.
func TestStageBound(t *testing.T) {
	rec := &recorder{}
	c := NewStream(rec)
	frame := headerLen + 4096
	Stage(c, 3*frame)
	blocks := make([][]byte, 4)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(i + 1)}, 4096)
		if err := c.Send(Message{Type: MsgBlockData, Arg: uint64(i), Payload: blocks[i]}); err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int{true: 4 * frame, false: 0}[i == 3]; rec.Len() != want {
			t.Fatalf("after frame %d the stream holds %d bytes, want %d", i, rec.Len(), want)
		}
	}
	last := rec.writes[len(rec.writes)-1]
	if &last[0] != &blocks[3][0] {
		t.Fatal("the frame that passed the bound was copied, not written in place")
	}
}

// TestStagedWriteErrorSticks: the write that carries staged frames fails
// the call that made it, and every Send and Flush after it.
func TestStagedWriteErrorSticks(t *testing.T) {
	boom := errors.New("link down")
	rec := &recorder{fail: boom}
	c := NewStream(rec)
	Stage(c, StageMax)
	if err := c.Send(Message{Type: MsgBlockData, Payload: make([]byte, 4096)}); err != nil {
		t.Fatalf("staging a frame touched the stream: %v", err)
	}
	if err := Flush(c); !errors.Is(err, boom) {
		t.Fatalf("Flush = %v, want the write's error", err)
	}
	rec.fail = nil
	if err := c.Send(Message{Type: MsgDone}); !errors.Is(err, boom) {
		t.Fatalf("Send after a failed write = %v, want the write's error", err)
	}
	if rec.Len() != 0 {
		t.Fatalf("%d bytes written after the framing was lost", rec.Len())
	}
}

// opaque is a decorator that does not forward Stager, like a tracing wrapper.
type opaque struct{ Conn }

// TestStageForwarding: the decorators pass the opt-in and the flush down to
// the stream; a pipe, and anything under a decorator that does not forward —
// Latent, whose timing is a link model, Compressed, whose frames say nothing
// of the work behind them, or a tracing wrapper — stays frame-synchronous. A Swappable stages the conn it is rebound to as it
// staged the one before.
func TestStageForwarding(t *testing.T) {
	stream := func() Conn { return NewStream(&recorder{}) }
	pipe, _ := NewPipe(1)
	compressed, err := NewCompressed(stream(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		c      Conn
		stages bool
	}{
		"meter":      {NewMeter(stream()), true},
		"compressed": {compressed, false},
		"swappable":  {NewSwappable(stream()), true},
		"latent":     {NewWAN(stream(), 0, 0), false},
		"striped":    {NewStriped([]Conn{stream(), stream()}), true},
		"fault":      {NewScriptedFaultConn(stream()), true},
		"pipe":       {NewMeter(pipe), false},
		"opaque":     {NewMeter(opaque{stream()}), false},
	} {
		if got := Stage(tc.c, StageMax); got != tc.stages {
			t.Errorf("%s: Stage = %v, want %v", name, got, tc.stages)
		}
		if err := Flush(tc.c); err != nil {
			t.Errorf("%s: Flush: %v", name, err)
		}
	}

	sw := NewSwappable(stream())
	Stage(sw, StageMax)
	rec := &recorder{}
	sw.Rebind(NewStream(rec))
	if err := sw.Send(Message{Type: MsgBlockData, Payload: make([]byte, 4096)}); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 0 {
		t.Fatal("the rebound conn does not stage")
	}
	if err := sw.Flush(); err != nil || rec.Len() != headerLen+4096 {
		t.Fatalf("Flush through the Swappable: %v, %d bytes on the stream", err, rec.Len())
	}
}

// TestStagedSendAllocatesNothing: staging a frame, and the write that
// carries a batch, allocate nothing once the conn is opted in.
func TestStagedSendAllocatesNothing(t *testing.T) {
	c := NewStream(struct {
		io.Reader
		io.Writer
		io.Closer
	}{nil, io.Discard, io.NopCloser(nil)})
	Stage(c, StageMax)
	m := Message{Type: MsgBlockData, Arg: 7, Payload: make([]byte, 4096)}
	if n := testing.AllocsPerRun(500, func() {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a staged 4 KiB Send allocates %.1f times", n)
	}
}

// TestAcceptResumeBoundsSilentClient: a client that connects and never sends
// its resume frame cannot hold AcceptResume past its timeout.
func TestAcceptResumeBoundsSilentClient(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	silent, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	token, err := NewSessionToken()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		c, _, err := AcceptResume(l, token, 0, 200*time.Millisecond)
		if c != nil {
			c.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("AcceptResume accepted a connection that never sent a resume frame")
		}
	case <-time.After(3 * time.Second):
		silent.Close() // release the goroutine
		l.Close()
		<-done
		t.Fatal("AcceptResume was still waiting on a silent client 3 s into a 200 ms timeout")
	}
}
