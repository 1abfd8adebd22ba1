package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"testing/quick"
)

// encode appends the wire form of m to buf, as a stream connection's Send
// writes it, and returns the result.
func encode(buf []byte, m Message) ([]byte, error) {
	if len(m.Payload) > MaxPayload {
		return nil, fmt.Errorf("transport: payload %d exceeds max %d", len(m.Payload), MaxPayload)
	}
	var hdr [headerLen]byte
	hdr[0] = byte(m.Type)
	binary.LittleEndian.PutUint64(hdr[1:], m.Arg)
	binary.LittleEndian.PutUint32(hdr[9:], uint32(len(m.Payload)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, m.Payload...)
	return buf, nil
}

// rwc adapts two in-memory pipes into an io.ReadWriteCloser pair.
func netPair(t *testing.T) (Conn, Conn) {
	t.Helper()
	ar, bw := io.Pipe()
	br, aw := io.Pipe()
	a := NewStream(struct {
		io.Reader
		io.Writer
		io.Closer
	}{ar, aw, aw})
	b := NewStream(struct {
		io.Reader
		io.Writer
		io.Closer
	}{br, bw, bw})
	return a, b
}

func TestStreamRoundTrip(t *testing.T) {
	a, b := netPair(t)
	defer a.Close()
	defer b.Close()
	want := Message{Type: MsgBlockData, Arg: 42, Payload: bytes.Repeat([]byte{9}, 4096)}
	errc := make(chan error, 1)
	go func() { errc <- a.Send(want) }()
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got.Type != want.Type || got.Arg != want.Arg || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("got %+v", got)
	}
}

// TestStreamSendAllocatesNothing pins the vectored send path to zero heap
// allocations a frame, over an in-memory writer and over loopback TCP, where
// the header+payload pair goes out as one writev.
func TestStreamSendAllocatesNothing(t *testing.T) {
	m := Message{Type: MsgBlockData, Arg: 7, Payload: make([]byte, 4096)}
	discard := NewStream(struct {
		io.Reader
		io.Writer
		io.Closer
	}{nil, io.Discard, io.NopCloser(nil)})
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64<<10)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	}()
	tcp, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]Conn{"in-memory": discard, "tcp": tcp} {
		if n := testing.AllocsPerRun(200, func() {
			if err := c.Send(m); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: a 4 KiB Send allocates %.1f times", name, n)
		}
	}
	tcp.Close()
	<-drained
}

func TestStreamOrdering(t *testing.T) {
	a, b := netPair(t)
	defer a.Close()
	defer b.Close()
	const n = 100
	go func() {
		for i := 0; i < n; i++ {
			a.Send(Message{Type: MsgBlockData, Arg: uint64(i)})
		}
	}()
	for i := 0; i < n; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Arg != uint64(i) {
			t.Fatalf("message %d has Arg %d", i, m.Arg)
		}
	}
}

func TestStreamEmptyPayload(t *testing.T) {
	a, b := netPair(t)
	defer a.Close()
	defer b.Close()
	go a.Send(Message{Type: MsgSuspend})
	m, err := b.Recv()
	if err != nil || m.Type != MsgSuspend || m.Payload != nil {
		t.Fatalf("m=%+v err=%v", m, err)
	}
}

func TestStreamConcurrentSenders(t *testing.T) {
	a, b := netPair(t)
	defer a.Close()
	defer b.Close()
	const senders, per = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := a.Send(Message{Type: MsgBlockData, Arg: uint64(s)}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	counts := make(map[uint64]int)
	for i := 0; i < senders*per; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		counts[m.Arg]++
	}
	wg.Wait()
	for s := 0; s < senders; s++ {
		if counts[uint64(s)] != per {
			t.Fatalf("sender %d: %d messages", s, counts[uint64(s)])
		}
	}
}

func TestRejectOversizedPayload(t *testing.T) {
	a, _ := NewPipe(1)
	err := a.Send(Message{Type: MsgBlockData, Payload: make([]byte, MaxPayload+1)})
	if err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestReadMessageRejectsCorruptLength(t *testing.T) {
	var buf bytes.Buffer
	b, _ := encode(nil, Message{Type: MsgBlockData, Arg: 1, Payload: []byte{1}})
	// Corrupt the length field to a huge value.
	b[9], b[10], b[11], b[12] = 0xff, 0xff, 0xff, 0xff
	buf.Write(b)
	if _, err := readMessageHdr(&buf, new([headerLen]byte)); err == nil {
		t.Fatal("corrupt length accepted")
	}
}

func TestPipeRoundTripAndClose(t *testing.T) {
	a, b := NewPipe(4)
	want := Message{Type: MsgPullRequest, Arg: 7}
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil || got.Arg != 7 {
		t.Fatalf("got %+v err %v", got, err)
	}
	a.Close()
	a.Close() // double close is fine
	if _, err := a.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv on closed: %v", err)
	}
	if err := b.Send(want); !errors.Is(err, ErrClosed) {
		t.Fatalf("send to closed peer: %v", err)
	}
}

func TestPipeDrainsInFlightAfterPeerClose(t *testing.T) {
	a, b := NewPipe(4)
	a.Send(Message{Type: MsgDone})
	a.Close()
	m, err := b.Recv()
	if err != nil || m.Type != MsgDone {
		t.Fatalf("in-flight message lost: %+v %v", m, err)
	}
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("after drain: %v", err)
	}
}

func TestPipeCopiesPayload(t *testing.T) {
	a, b := NewPipe(1)
	buf := []byte{1, 2, 3}
	a.Send(Message{Type: MsgBlockData, Payload: buf})
	buf[0] = 99 // sender reuses its buffer
	m, _ := b.Recv()
	if m.Payload[0] != 1 {
		t.Fatal("pipe aliases sender buffer")
	}
}

func TestMeterCounts(t *testing.T) {
	a, b := NewPipe(8)
	ma, mb := NewMeter(a), NewMeter(b)
	msg := Message{Type: MsgBlockData, Arg: 1, Payload: make([]byte, 100)}
	for i := 0; i < 3; i++ {
		if err := ma.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := mb.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	wantBytes := int64(3 * msg.FrameSize())
	if ma.BytesSent() != wantBytes || ma.MessagesSent() != 3 {
		t.Fatalf("sent %d bytes / %d msgs", ma.BytesSent(), ma.MessagesSent())
	}
	if mb.BytesReceived() != wantBytes || mb.MessagesReceived() != 3 {
		t.Fatalf("received %d bytes / %d msgs", mb.BytesReceived(), mb.MessagesReceived())
	}
	ma.Close()
}

func TestGeometryRoundTrip(t *testing.T) {
	g := Geometry{BlockSize: 4096, NumBlocks: 1000, PageSize: 4096, NumPages: 512}
	data, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Geometry
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got != g {
		t.Fatalf("round trip %+v != %+v", got, g)
	}
	if err := got.UnmarshalBinary(data[:10]); err == nil {
		t.Fatal("short geometry accepted")
	}
	bad := Geometry{BlockSize: -1}
	if bad.Validate() == nil {
		t.Fatal("invalid geometry accepted")
	}
}

func TestQuickEncodeDecode(t *testing.T) {
	f := func(typ uint8, arg uint64, payload []byte) bool {
		m := Message{Type: MsgType(typ), Arg: arg, Payload: payload}
		b, err := encode(nil, m)
		if err != nil {
			return len(payload) > MaxPayload
		}
		got, err := readMessageHdr(bytes.NewReader(b), new([headerLen]byte))
		if err != nil {
			return false
		}
		return got.Type == m.Type && got.Arg == m.Arg && bytes.Equal(got.Payload, m.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTCPEndToEnd(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type res struct {
		c   Conn
		err error
	}
	acc := make(chan res, 1)
	go func() {
		c, err := Accept(l)
		acc <- res{c, err}
	}()
	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-acc
	if server.err != nil {
		t.Fatal(server.err)
	}
	defer server.c.Close()

	want := Message{Type: MsgHello, Arg: ProtocolVersion, Payload: []byte("geom")}
	if err := client.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := server.c.Recv()
	if err != nil || got.Type != MsgHello || string(got.Payload) != "geom" {
		t.Fatalf("got %+v err %v", got, err)
	}
	// reply direction
	if err := server.c.Send(Message{Type: MsgHelloAck}); err != nil {
		t.Fatal(err)
	}
	if m, err := client.Recv(); err != nil || m.Type != MsgHelloAck {
		t.Fatalf("ack: %+v %v", m, err)
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgBlockData.String() != "BLOCK_DATA" || MsgMemPageDelta.String() != "MEM_PAGE_DELTA" || MsgZeroExtent.String() != "ZERO_EXTENT" {
		t.Fatal(MsgBlockData.String(), MsgMemPageDelta.String(), MsgZeroExtent.String())
	}
	if MsgZeroExtent != 34 {
		t.Fatalf("MsgZeroExtent is %d on the wire, want 34", MsgZeroExtent)
	}
	if MsgType(200).String() == "" {
		t.Fatal("unknown type has empty string")
	}
}

// FuzzFrameDecode: the frame decoder and the extent unpacking read bytes a
// peer chose. Decoding never panics; a frame it accepts re-encodes to exactly
// the bytes it consumed; and whatever Arg it carried unpacks to a
// non-negative extent that packs back to the same Arg whenever it is legal.
func FuzzFrameDecode(f *testing.F) {
	frame := func(m Message) []byte {
		b, err := encode(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(frame(Message{Type: MsgHello, Arg: ProtocolVersion, Payload: make([]byte, 32)}))
	f.Add(frame(Message{Type: MsgExtent, Arg: ExtentArg(7, 2), Payload: make([]byte, 2*4096)}))
	f.Add(frame(Message{Type: MsgMemPageDelta, Arg: 3, Payload: []byte{1, 2, 3, 4, 0, 1, 8, 7, 6, 5, 4, 3, 2, 1}}))
	f.Add(frame(Message{Type: MsgDeltaPatch, Arg: ^uint64(0)}))
	f.Add(frame(Message{Type: MsgZeroExtent, Arg: ExtentArg(9, 64)}))
	f.Add([]byte{byte(MsgBlockData), 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // length past MaxPayload
	f.Add([]byte{byte(MsgBlockData), 1, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 1, 2})       // payload cut short
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readMessageHdr(bytes.NewReader(data), new([headerLen]byte))
		if err != nil {
			return
		}
		if len(m.Payload) > MaxPayload {
			t.Fatalf("accepted a %d-byte payload", len(m.Payload))
		}
		again, err := encode(nil, m)
		if err != nil || !bytes.Equal(again, data[:m.FrameSize()]) {
			t.Fatalf("accepted frame re-encodes differently (%v)", err)
		}
		start, count := ExtentSplit(m.Arg)
		if start < 0 || count < 0 || count > MaxExtentBlocks {
			t.Fatalf("ExtentSplit(%#x) = (%d, %d)", m.Arg, start, count)
		}
		if count >= 1 && ExtentArg(start, count) != m.Arg {
			t.Fatalf("ExtentArg(ExtentSplit(%#x)) = %#x", m.Arg, ExtentArg(start, count))
		}
		if _, n := CarriedUnits(m); n < 0 || (n > 0 && !IsDataFrame(m.Type) && m.Type != MsgDeltaPatch) {
			t.Fatalf("CarriedUnits(%v) = %d units", m.Type, n)
		}
		m.Release()
	})
}
