package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"slices"
	"testing"
)

// goAlloc is the size the Go allocator hands out for n bytes: growslice
// rounds a slice's capacity up to it.
func goAlloc(n int) int { return cap(slices.Grow([]byte(nil), n)) }

// TestBufPoolSizing pins the class rule: the smallest power of two of at
// least 64 bytes that holds n, plus one 8 KiB page from 32 KiB up; every
// class is a size the allocator hands out exactly, so a buffer's capacity is
// what it costs.
func TestBufPoolSizing(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{1, 64}, {64, 64}, {65, 128}, {4096, 4096}, {4097, 8192}, {16 << 10, 16 << 10},
		{16<<10 + 1, 40 << 10}, {40 << 10, 40 << 10}, {40<<10 + 1, 72 << 10},
		{256 << 10, 264 << 10}, {264 << 10, 264 << 10}, {16 << 20, 16<<20 + 8<<10}, {16<<20 + 8<<10, 16<<20 + 8<<10},
	}
	for _, c := range cases {
		b := GetBuf(c.n)
		if len(b) != c.n || cap(b) != c.wantCap {
			t.Fatalf("GetBuf(%d) = len %d cap %d, want len %d cap %d", c.n, len(b), cap(b), c.n, c.wantCap)
		}
		PutBuf(b)
	}
	for idx := range numBufClass {
		if c := bufCap(idx); goAlloc(c) != c {
			t.Errorf("class %d holds %d bytes, the allocator hands out %d", idx, c, goAlloc(c))
		}
	}
	if b := GetBuf(0); b != nil {
		t.Fatalf("GetBuf(0) = %v, want nil", b)
	}
	// Above the largest class: exact allocation, never pooled.
	huge := GetBuf(17 << 20)
	if len(huge) != 17<<20 || cap(huge) != 17<<20 {
		t.Fatalf("oversize GetBuf = len %d cap %d", len(huge), cap(huge))
	}
	PutBuf(huge)             // silently dropped
	PutBuf(nil)              // no-op
	PutBuf([]byte{1}[0:1:1]) // cap 1 matches no class: dropped
}

// TestBufPoolFitsEngineFrames: every payload the engine builds at its own
// limits of 16 and 64 blocks or pages lands in a class that costs at most
// one 8 KiB page over its length, as the allocator hands it out, so a batch
// in flight does not pin twice its length.
func TestBufPoolFitsEngineFrames(t *testing.T) {
	const page, entryBytes = 4096, 4096 + 2*binary.MaxVarintLen64 // core.sendPages' bound per page
	batch := func(pages int) int {
		var b []byte
		for range pages {
			b = AppendMemPage(b, 0, make([]byte, page))
		}
		return len(b)
	}
	shapes := []struct {
		name string
		n    int
	}{
		{"EXTENT, 64 blocks", 64 * page},
		{"MEM_PAGES, 16 pages", batch(16)},
		{"MEM_PAGES, 64 pages", batch(64)},
		{"source batch buffer, 16 pages", 16 * entryBytes},
		{"source batch buffer, 64 pages", 64 * entryBytes},
		{"Compressed raw fallback, 64-block EXTENT", 64*page + 1},
		{"Compressed raw fallback, 64-page MEM_PAGES", batch(64) + 1},
		{"swarm reply, 64 blocks and their hit mask", (64+7)/8 + 64*page},
	}
	if shapes[2].n != 262336 || shapes[1].n != 65584 {
		t.Fatalf("MEM_PAGES batches of %d and %d bytes, want 65584 and 262336", shapes[1].n, shapes[2].n)
	}
	for _, s := range shapes {
		b := GetBuf(s.n)
		if got := goAlloc(cap(b)); got != cap(b) || got-s.n > 8<<10 {
			t.Errorf("%s: %d bytes in a class of %d, allocated as %d: more than a page over", s.name, s.n, cap(b), got)
		}
		PutBuf(b)
	}
}

func TestBufPoolRecycles(t *testing.T) {
	// Not strictly guaranteed by sync.Pool, but with no GC between Put and
	// Get on one goroutine the per-P cache returns the same buffer.
	b1 := GetBuf(1000)
	b1[0] = 42
	PutBuf(b1)
	b2 := GetBuf(500)
	if &b1[0] != &b2[0] {
		t.Skip("sync.Pool did not recycle (GC raced); nothing to assert")
	}
	PutBuf(b2)
}

func TestBufPoisonScribbles(t *testing.T) {
	SetBufPoison(true)
	defer SetBufPoison(false)
	b := GetBuf(128)
	for i := range b {
		b[i] = 7
	}
	PutBuf(b)
	for i := range b {
		if b[i] != 0xDB {
			t.Fatalf("byte %d = %#x after release, want poison 0xDB", i, b[i])
		}
	}
}

func TestMessageRelease(t *testing.T) {
	m := Message{Type: MsgBlockData, Payload: GetBuf(64)}
	m.Release()
	if m.Payload != nil {
		t.Fatal("Release did not clear the payload")
	}
	m.Release() // idempotent on a cleared message
}

// TestControlFrameRecvAllocs pins the zero-length-payload satellite: a
// control-heavy phase (barriers, acks, iteration markers) must decode
// frames without allocating at all, and data frames must allocate nothing
// beyond the pooled payload they hand out.
func TestControlFrameRecvAllocs(t *testing.T) {
	wire, err := encode(nil, Message{Type: MsgIterEnd, Arg: 7})
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(nil)
	var hdr [headerLen]byte // the conn's scratch, held across frames like streamConn's
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(wire)
		m, err := readMessageHdr(r, &hdr)
		if err != nil || m.Type != MsgIterEnd || m.Arg != 7 || m.Payload != nil {
			t.Fatalf("readMessage = %+v, %v", m, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("control-frame receive allocates %.1f/op, want 0", allocs)
	}

	wire, err = encode(nil, Message{Type: MsgBlockData, Arg: 3, Payload: make([]byte, 4096)})
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(200, func() {
		r.Reset(wire)
		m, err := readMessageHdr(r, &hdr)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
	})
	if allocs != 0 {
		t.Fatalf("pooled data-frame receive allocates %.1f/op, want 0", allocs)
	}
}

// sinkRWC captures everything written to it.
type sinkRWC struct{ bytes.Buffer }

func (*sinkRWC) Read([]byte) (int, error) { return 0, io.EOF }
func (*sinkRWC) Close() error             { return nil }

// TestVectoredSendMatchesEncode proves the vectored/staged send paths emit
// byte-identical framing to the canonical encoder for every payload shape:
// empty, below the vectored threshold, exactly at it, and far above it.
func TestVectoredSendMatchesEncode(t *testing.T) {
	payload := make([]byte, 1<<16)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	msgs := []Message{
		{Type: MsgIterStart, Arg: 1},
		{Type: MsgBlockData, Arg: 9, Payload: payload[:1]},
		{Type: MsgExtent, Arg: ExtentArg(4, 2), Payload: payload[:vectoredMin-1]},
		{Type: MsgExtent, Arg: ExtentArg(6, 3), Payload: payload[:vectoredMin]},
		{Type: MsgExtent, Arg: ExtentArg(0, 16), Payload: payload},
		{Type: MsgDone},
	}
	sink := &sinkRWC{}
	conn := NewStream(sink)
	var want []byte
	for _, m := range msgs {
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
		var err error
		if want, err = encode(want, m); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(sink.Bytes(), want) {
		t.Fatalf("vectored send wrote %d bytes differing from canonical encoding (%d bytes)", sink.Len(), len(want))
	}
	// And the round trip through a real reader hands back the same frames.
	rc := NewStream(&replayRWC{Reader: *bytes.NewReader(sink.Bytes())})
	for _, m := range msgs {
		got, err := rc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != m.Type || got.Arg != m.Arg || !bytes.Equal(got.Payload, m.Payload) {
			t.Fatalf("round trip mismatch: got %v arg=%d len=%d, want %v arg=%d len=%d",
				got.Type, got.Arg, len(got.Payload), m.Type, m.Arg, len(m.Payload))
		}
		got.Release()
	}
}

// replayRWC serves a recorded byte stream to Recv.
type replayRWC struct{ bytes.Reader }

func (*replayRWC) Write(p []byte) (int, error) { return len(p), nil }
func (*replayRWC) Close() error                { return nil }
