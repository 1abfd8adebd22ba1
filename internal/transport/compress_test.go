package transport

import (
	"bytes"
	"compress/flate"
	"errors"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func compressedPair(t *testing.T) (*Compressed, *Compressed, *Meter) {
	t.Helper()
	a, b := NewPipe(64)
	meter := NewMeter(a)
	ca, err := NewCompressed(meter, 0)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := NewCompressed(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ca, cb, meter
}

func TestCompressedRoundTrip(t *testing.T) {
	ca, cb, _ := compressedPair(t)
	payloads := [][]byte{
		nil,
		{},
		[]byte("hello"),
		bytes.Repeat([]byte{0}, 4096),         // highly compressible
		bytes.Repeat([]byte("abcd1234"), 512), // compressible
		func() []byte { // incompressible
			b := make([]byte, 4096)
			for i := range b {
				b[i] = byte(i*2654435761 + i>>3)
			}
			return b
		}(),
	}
	for i, p := range payloads {
		want := Message{Type: MsgBlockData, Arg: uint64(i), Payload: p}
		if err := ca.Send(want); err != nil {
			t.Fatalf("payload %d: send: %v", i, err)
		}
		got, err := cb.Recv()
		if err != nil {
			t.Fatalf("payload %d: recv: %v", i, err)
		}
		if got.Arg != want.Arg || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("payload %d: round trip mismatch (%d vs %d bytes)", i, len(got.Payload), len(want.Payload))
		}
	}
	ca.Close()
	if _, err := ca.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv after close: %v", err)
	}
}

func TestCompressedShrinksZeroBlocks(t *testing.T) {
	ca, cb, meter := compressedPair(t)
	const n = 64
	payload := make([]byte, 4096) // a zero block, the common sparse case
	go func() {
		for i := 0; i < n; i++ {
			ca.Send(Message{Type: MsgBlockData, Arg: uint64(i), Payload: payload})
		}
	}()
	for i := 0; i < n; i++ {
		if _, err := cb.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	raw := int64(n * (4096 + headerLen))
	if meter.BytesSent() > raw/10 {
		t.Fatalf("compressed wire bytes %d, raw would be %d — no compression happened", meter.BytesSent(), raw)
	}
}

func TestCompressedIncompressibleCostsOneByte(t *testing.T) {
	ca, cb, meter := compressedPair(t)
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte((i*73 + i*i*31) ^ (i >> 2)) // poorly compressible
	}
	before := meter.BytesSent()
	go ca.Send(Message{Type: MsgBlockData, Payload: payload})
	m, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Payload, payload) {
		t.Fatal("payload corrupted")
	}
	wire := meter.BytesSent() - before
	// either deflate managed to shrink it, or we paid exactly 1 marker byte
	if wire > int64(len(payload)+headerLen+1) {
		t.Fatalf("incompressible payload cost %d wire bytes (max %d)", wire, len(payload)+headerLen+1)
	}
}

func TestCompressedRejectsGarbageMarker(t *testing.T) {
	a, b := NewPipe(4)
	cb, _ := NewCompressed(b, 0)
	a.Send(Message{Type: MsgBlockData, Payload: []byte{99, 1, 2}})
	if _, err := cb.Recv(); err == nil {
		t.Fatal("garbage marker accepted")
	}
	a.Send(Message{Type: MsgBlockData, Payload: []byte{compressDeflate, 0xff, 0xff}})
	if _, err := cb.Recv(); err == nil {
		t.Fatal("corrupt deflate stream accepted")
	}
}

// deflated is a compressed-stream frame payload: the deflate marker, then
// the flate stream of each chunk in turn at the given level.
func deflated(t testing.TB, level int, chunks ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteByte(compressDeflate)
	fw, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if _, err := fw.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCompressedRecvBoundsInflation: a deflate frame of about 100 KB that
// inflates to 100 MiB — a thousand times its size — fails the Recv like any
// other frame past MaxPayload, instead of coming back as a payload no peer
// may send.
func TestCompressedRecvBoundsInflation(t *testing.T) {
	zeros := make([]byte, 1<<20)
	chunks := make([][]byte, 100)
	for i := range chunks {
		chunks[i] = zeros
	}
	bomb := deflated(t, flate.BestCompression, chunks...)
	if len(bomb)*500 > 100<<20 {
		t.Fatalf("the bomb is %d bytes: not the ~1000x case", len(bomb))
	}
	a, b := NewPipe(1)
	defer a.Close()
	cb, err := NewCompressed(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(Message{Type: MsgExtent, Payload: bomb}); err != nil {
		t.Fatal(err)
	}
	if m, err := cb.Recv(); err == nil {
		t.Fatalf("a %d-byte frame came back as a %d-byte payload", len(bomb), len(m.Payload))
	}
}

// TestCompressedRecvSizesToClass: an inflated payload comes back in a buffer
// of its own pool class, not one twice as large, whether it is the conn's
// first payload of that size or a repeat, and whether it deflates a
// thousandfold (zeros) or about twice (bytes drawn from sixteen values).
func TestCompressedRecvSizesToClass(t *testing.T) {
	for _, size := range []int{4 << 10, 256 << 10, 1 << 20} {
		patterned := make([]byte, size)
		x := uint32(size)
		for i := range patterned {
			x = x*1664525 + 1013904223
			patterned[i] = byte(x>>28) + 'a'
		}
		for name, payload := range map[string][]byte{"zero": make([]byte, size), "patterned": patterned} {
			ca, cb, _ := compressedPair(t)
			for round := 0; round < 2; round++ {
				go ca.Send(Message{Type: MsgExtent, Payload: payload})
				m, err := cb.Recv()
				if err != nil || !bytes.Equal(m.Payload, payload) {
					t.Fatalf("%s %d: round trip failed: %v", name, size, err)
				}
				if class := bufCap(bufClass(len(m.Payload))); cap(m.Payload) != class {
					t.Errorf("%s %d, round %d: len %d cap %d, want cap %d", name, size, round, len(m.Payload), cap(m.Payload), class)
				}
				m.Release()
			}
			ca.Close()
		}
	}
}

// TestCompressedInflatesBatchAfterExtent: a 64-page MEM_PAGES batch received
// right after a 64-block extent inflates into the buffer the extent's size
// guessed, the one class both fit: no grow copy, which would have left it in
// the class above.
func TestCompressedInflatesBatchAfterExtent(t *testing.T) {
	ca, cb, _ := compressedPair(t)
	defer ca.Close()
	extent, batch := bytes.Repeat([]byte("extent "), 262144/7+1)[:262144], bytes.Repeat([]byte("page "), 262336/5+1)[:262336]
	for _, payload := range [][]byte{extent, batch} {
		go ca.Send(Message{Type: MsgExtent, Payload: payload})
		m, err := cb.Recv()
		if err != nil || !bytes.Equal(m.Payload, payload) {
			t.Fatalf("%d bytes: round trip failed: %v", len(payload), err)
		}
		if cap(m.Payload) != 264<<10 {
			t.Errorf("%d bytes inflated into a buffer of %d, want %d", len(payload), cap(m.Payload), 264<<10)
		}
		m.Release()
	}
}

// TestCompressedEmptyPayloadCostsOneByte: a frame with no payload — a zero
// extent, a control frame — costs its header and the raw marker, nothing
// more, and arrives with no payload.
func TestCompressedEmptyPayloadCostsOneByte(t *testing.T) {
	ca, cb, meter := compressedPair(t)
	go ca.Send(Message{Type: MsgZeroExtent, Arg: ExtentArg(64, 64)})
	m, err := cb.Recv()
	if err != nil || m.Type != MsgZeroExtent || m.Arg != ExtentArg(64, 64) || len(m.Payload) != 0 {
		t.Fatalf("got %v arg %d with %d payload bytes (%v)", m.Type, m.Arg, len(m.Payload), err)
	}
	if got := meter.BytesSent(); got != headerLen+1 {
		t.Fatalf("an empty frame cost %d wire bytes, want %d", got, headerLen+1)
	}
}

// FuzzCompressedRecv feeds Compressed.Recv arbitrary frame payloads — what a
// peer's compressed stream can deliver. It must never panic, a payload it
// accepts is within MaxPayload, and a raw-marker frame comes back as its
// body, byte for byte.
func FuzzCompressedRecv(f *testing.F) {
	good := deflated(f, 1, bytes.Repeat([]byte("block "), 700))
	f.Add([]byte{compressRaw})
	f.Add([]byte{compressRaw, 1, 2, 3})
	f.Add(good)
	f.Add(good[:len(good)/2]) // a stream cut short
	f.Add([]byte{compressDeflate, 0xff, 0xff})
	f.Add([]byte{7}) // an unknown marker
	f.Add([]byte{})  // no marker at all
	f.Fuzz(func(t *testing.T, payload []byte) {
		a, b := NewPipe(1)
		defer a.Close()
		cb, err := NewCompressed(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Send(Message{Type: MsgExtent, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		m, err := cb.Recv()
		if err != nil {
			return
		}
		if len(m.Payload) > MaxPayload {
			t.Fatalf("accepted a %d-byte payload", len(m.Payload))
		}
		if payload[0] == compressRaw && !bytes.Equal(m.Payload, payload[1:]) {
			t.Fatalf("raw frame %x came back as %x", payload[1:], m.Payload)
		}
		m.Release()
	})
}

func TestQuickCompressedRoundTrip(t *testing.T) {
	ca, cb, _ := compressedPair(t)
	f := func(payload []byte, arg uint64) bool {
		errc := make(chan error, 1)
		go func() { errc <- ca.Send(Message{Type: MsgBlockData, Arg: arg, Payload: payload}) }()
		m, err := cb.Recv()
		if err != nil || <-errc != nil {
			return false
		}
		if len(payload) == 0 {
			return len(m.Payload) == 0
		}
		return m.Arg == arg && bytes.Equal(m.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFaultConnSend(t *testing.T) {
	a, b := NewPipe(16)
	fa := NewFaultConn(a, 3, 0)
	for i := 0; i < 3; i++ {
		if err := fa.Send(Message{Type: MsgBlockData}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := fa.Send(Message{Type: MsgBlockData}); !errors.Is(err, ErrInjected) {
		t.Fatalf("4th send: %v", err)
	}
	// the link is dead for the peer too
	if err := b.Send(Message{Type: MsgDone}); !errors.Is(err, ErrClosed) {
		t.Fatalf("peer send after fault: %v", err)
	}
}

func TestFaultConnRecv(t *testing.T) {
	a, b := NewPipe(16)
	fb := NewFaultConn(b, 0, 1)
	a.Send(Message{Type: MsgBlockData})
	a.Send(Message{Type: MsgBlockData})
	if _, err := fb.Recv(); err != nil {
		t.Fatal(err)
	}
	if _, err := fb.Recv(); !errors.Is(err, ErrInjected) {
		t.Fatalf("2nd recv: %v", err)
	}
	fb.Close()
}

// TestFlateStateIsProcessWide: conns opened one after another draw their
// flate state from one process-wide free list per level (what that saves is
// TestFlateCodersOutliveGC's). Every level still gets the state it asked
// for — a level-1 writer handed to a level-9 conn would round-trip, just not
// at level 9 — and a level flate does not have still fails when the conn is
// built, not on the first Send.
func TestFlateStateIsProcessWide(t *testing.T) {
	payload := bytes.Repeat([]byte("the quick brown fox "), 1000)
	roundTrip := func(level int) int64 {
		t.Helper()
		a, b := NewPipe(4)
		meter := NewMeter(a)
		ca, err := NewCompressed(meter, level)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := NewCompressed(b, level)
		if err != nil {
			t.Fatal(err)
		}
		if err := ca.Send(Message{Type: MsgExtent, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		got, err := cb.Recv()
		if err != nil || !bytes.Equal(got.Payload, payload) {
			t.Fatalf("level %d: round trip failed: %v", level, err)
		}
		got.Release()
		ca.Close()
		return meter.BytesSent()
	}
	if first, again := roundTrip(1), roundTrip(1); first != again {
		t.Errorf("a reused compressor sent %d bytes for what a fresh one sent in %d", again, first)
	}
	if fast, best := roundTrip(-2), roundTrip(9); best >= fast {
		t.Errorf("level 9 sent %d bytes, Huffman-only %d: levels share a compressor", best, fast)
	}
	for _, level := range []int{-3, 10} {
		if _, err := NewCompressed(nil, level); err == nil {
			t.Errorf("level %d accepted", level)
		}
	}
}

// heldConn holds each Send until every Send of its round is in flight, so
// the Compressed conns above it hold their compressors at once.
type heldConn struct {
	Conn
	round *sync.WaitGroup
}

func (h heldConn) Send(m Message) error {
	h.round.Done()
	h.round.Wait()
	return h.Conn.Send(m)
}

// idleCoders drains l when drain is set, and returns how many coders it holds.
func idleCoders[T any](l *freeList[T], drain bool) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if drain {
		l.idle = nil
	}
	return len(l.idle)
}

// TestFlateCodersOutliveGC: n conns deflate at once, their payloads inflate,
// the GC runs twice, and the same is done again. The second round builds no
// coder, and the lists hold no more than were busy at once. A sync.Pool
// fails it: two GC cycles empty one. The payloads inflate one at a time: a
// Recv holds its inflater only while it inflates, so how many overlap would
// be the scheduler's choice, and a second round that overlapped more than the
// first would have to build one.
func TestFlateCodersOutliveGC(t *testing.T) {
	const n, level = 4, flate.BestSpeed
	deflate := &deflaters[level-flate.HuffmanOnly]
	idleCoders(deflate, true)
	idleCoders(&inflaters, true)
	payload := bytes.Repeat([]byte("the quick brown fox "), 1000)
	round := func() (built int64) {
		t.Helper()
		before := BufPoolStats().Coders
		var held, sent sync.WaitGroup
		held.Add(n)
		sent.Add(n)
		recv := make([]*Compressed, n)
		errs := make([]error, n)
		for i := range n {
			a, b := NewPipe(1)
			ca, err := NewCompressed(heldConn{a, &held}, level)
			if err != nil {
				t.Fatal(err)
			}
			if recv[i], err = NewCompressed(b, level); err != nil {
				t.Fatal(err)
			}
			go func() {
				defer sent.Done()
				errs[i] = ca.Send(Message{Type: MsgExtent, Payload: payload})
			}()
		}
		sent.Wait()
		for i, cb := range recv {
			got, err := cb.Recv()
			if errs[i] != nil || err != nil || !bytes.Equal(got.Payload, payload) {
				t.Fatalf("conn %d: round trip failed: send %v, recv %v", i, errs[i], err)
			}
			got.Release()
			cb.Close()
		}
		return BufPoolStats().Coders - before
	}
	if built := round(); built != n+1 {
		t.Errorf("the first round built %d coders, want %d writers and a reader", built, n)
	}
	runtime.GC()
	runtime.GC()
	if built := round(); built != 0 {
		t.Errorf("after two GC cycles the second round built %d coders, want none", built)
	}
	if d, i := idleCoders(deflate, false), idleCoders(&inflaters, false); d > n || i > n {
		t.Errorf("%d writers and %d readers idle after %d conns", d, i, n)
	}
}
