package transport

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// Compression markers prefixed to every payload crossing a Compressed conn.
const (
	compressRaw     = 0 // payload follows verbatim
	compressDeflate = 1 // payload is DEFLATE-compressed
)

// Compressed wraps a Conn so payloads are DEFLATE-compressed on the wire,
// the §III-A observation that "compress[ing] the transferred data before
// sending it will show a reduction in total migration time" when the link,
// not the CPU, is the bottleneck. Both endpoints must wrap symmetrically.
//
// Payloads that do not shrink (already-random blocks) are sent raw with a
// one-byte marker, so the worst case costs one byte per message.
//
// Compressed is not a Stager, so nothing below it stages: a deflated frame
// of a few hundred bytes can inflate to a whole extent, and a staged batch of
// them would land on the far side's inflater at once.
type Compressed struct {
	inner Conn
	level int

	// inflated is the size the last deflated payload Recv took in inflated
	// to, where the next one's buffer starts. Recv has a single consumer.
	inflated int
}

// compressor is one reusable flate writer + staging buffer.
type compressor struct {
	buf bytes.Buffer
	fw  *flate.Writer
}

// decompressor is one reusable flate reader + its byte source.
type decompressor struct {
	br    *bytes.Reader
	fr    io.ReadCloser // flate reader; also a flate.Resetter
	probe [1]byte       // the read past a full buffer (inflate)
}

// Flate state lives on per-process free lists, not per conn: a flate.Writer's
// tables run to a megabyte at the fast levels, and a migration that built its
// own — one per concurrent sender, plus the reader's window — threw them all
// away when it ended. A conn takes a coder per Send or Recv and hands it back.
var (
	// deflaters holds idle compressors, one list per flate level. Concurrent
	// Sends take one each and deflate in parallel, not on one shared writer.
	deflaters [flate.BestCompression - flate.HuffmanOnly + 1]freeList[*compressor]

	// inflaters holds idle decompressors, each with a reader's ~32 KiB window.
	inflaters freeList[*decompressor]
)

// freeList holds up to maxIdleCoders idle coders for the process's life.
// Unlike a sync.Pool, a GC cycle does not empty it and no P keeps a coder the
// others cannot take, so it holds what was ever busy at once, and a process's
// second compressing migration builds none. The bound is a constant, not
// GOMAXPROCS: the coders busy at once follow the migrations' workers, and a
// bound of 2 made bbench's 4-worker compressing row rebuild writers.
type freeList[T any] struct {
	mu   sync.Mutex
	idle []T
}

const maxIdleCoders = 8

// get takes an idle coder, or builds one (counted in PoolStats.Coders).
func (l *freeList[T]) get(build func() T) T {
	l.mu.Lock()
	if n := len(l.idle); n > 0 {
		c := l.idle[n-1]
		l.idle[n-1], l.idle = *new(T), l.idle[:n-1]
		l.mu.Unlock()
		return c
	}
	l.mu.Unlock()
	bufStats.coders.Add(1)
	return build()
}

// put hands c back, or drops it to the GC when the list is full.
func (l *freeList[T]) put(c T) {
	l.mu.Lock()
	if len(l.idle) < maxIdleCoders {
		l.idle = append(l.idle, c)
	}
	l.mu.Unlock()
}

// rawEmpty is the wire form of an empty payload: a lone raw marker. It is
// shared — Send only ever borrows it, never mutates it.
var rawEmpty = []byte{compressRaw}

// NewCompressed wraps inner at the given flate level (flate.DefaultCompression
// if 0). A level flate does not have fails here, not on the first Send from a
// worker goroutine.
func NewCompressed(inner Conn, level int) (*Compressed, error) {
	if level == 0 {
		level = flate.DefaultCompression
	}
	if level < flate.HuffmanOnly || level > flate.BestCompression {
		return nil, fmt.Errorf("transport: compression level %d: want a value in [%d, %d]", level, flate.HuffmanOnly, flate.BestCompression)
	}
	return &Compressed{inner: inner, level: level}, nil
}

// Send implements Conn. Wire payloads are staged in pooled buffers (or the
// compressor's own staging buffer, held until the inner Send returns —
// legal because Send only borrows its payload), so the compression layer
// adds no steady-state allocations.
func (c *Compressed) Send(m Message) error {
	if len(m.Payload) == 0 {
		m.Payload = rawEmpty
		return c.inner.Send(m)
	}
	list := &deflaters[c.level-flate.HuffmanOnly]
	co := list.get(func() *compressor {
		co := new(compressor)
		co.fw, _ = flate.NewWriter(&co.buf, c.level) // NewCompressed checked the level
		return co
	})
	defer list.put(co)
	co.buf.Reset()
	co.buf.WriteByte(compressDeflate)
	co.fw.Reset(&co.buf)
	if _, err := co.fw.Write(m.Payload); err != nil {
		return fmt.Errorf("transport: compress: %w", err)
	}
	if err := co.fw.Close(); err != nil {
		return fmt.Errorf("transport: compress flush: %w", err)
	}
	if co.buf.Len() < len(m.Payload)+1 {
		m.Payload = co.buf.Bytes()
		return c.inner.Send(m)
	}
	out := GetBuf(len(m.Payload) + 1)
	out[0] = compressRaw
	copy(out[1:], m.Payload)
	m.Payload = out
	err := c.inner.Send(m)
	PutBuf(out)
	return err
}

// Recv implements Conn.
func (c *Compressed) Recv() (Message, error) {
	m, err := c.inner.Recv()
	if err != nil {
		return m, err
	}
	if len(m.Payload) == 0 {
		return m, fmt.Errorf("transport: compressed frame without marker (%v)", m.Type)
	}
	marker, body := m.Payload[0], m.Payload[1:]
	switch marker {
	case compressRaw:
		if len(body) == 0 {
			m.Release()
		} else {
			// Slide the body over the marker in place: the payload keeps
			// its original capacity, so the buffer stays releasable to its
			// pool class downstream.
			n := copy(m.Payload, body)
			m.Payload = m.Payload[:n]
		}
		return m, nil
	case compressDeflate:
		d := inflaters.get(func() *decompressor {
			br := bytes.NewReader(nil)
			return &decompressor{br: br, fr: flate.NewReader(br)}
		})
		d.br.Reset(body)
		if err := d.fr.(flate.Resetter).Reset(d.br, nil); err != nil {
			return m, fmt.Errorf("transport: decompress reset: %w", err)
		}
		// Send deflates only what shrinks, so the body is a lower bound on
		// the payload; the last one's size is the likelier guess.
		out, err := d.inflate(max(len(body), c.inflated), MaxPayload)
		d.br.Reset(nil) // an idle decompressor must not pin the wire buffer it last read
		inflaters.put(d)
		if err != nil {
			return m, fmt.Errorf("transport: decompress %v: %w", m.Type, err)
		}
		c.inflated = len(out)
		m.Release() // wire buffer fully consumed
		m.Payload = out
		return m, nil
	default:
		return m, fmt.Errorf("transport: unknown compression marker %d", marker)
	}
}

// inflate reads d's flate stream to its end into a pooled buffer that starts
// at the pool class of size and grows a class at a time as needed, and
// fails as soon as the stream yields more than limit bytes — holding at most
// limit+1 of them, so a small deflate bomb costs one frame's worth of memory,
// not what it would inflate to. A full buffer grows only once a one-byte
// probe read proves more bytes follow: flate reports EOF only on the empty
// final block Close writes, so a payload that fills its buffer exactly is not
// copied into one twice its size. The caller owns the returned buffer.
func (d *decompressor) inflate(size, limit int) ([]byte, error) {
	out := GetBuf(min(max(size, 1<<12), limit+1))
	out = out[:cap(out)]
	n := 0
	for {
		full := n == len(out)
		dst := out[n:]
		if full {
			dst = d.probe[:]
		}
		k, err := d.fr.Read(dst)
		if full && k > 0 {
			grown := GetBuf(min(len(out)+len(out)/2, limit+1)) // the next class, or half again past the last
			grown = grown[:cap(grown)]
			copy(grown, out[:n])
			PutBuf(out)
			out = grown
			out[n] = d.probe[0]
		}
		n += k
		if n > limit {
			PutBuf(out)
			return nil, fmt.Errorf("payload inflates past %d bytes", limit)
		}
		if err == io.EOF {
			return out[:n], nil
		}
		if err != nil {
			PutBuf(out)
			return nil, err
		}
	}
}

// Close implements Conn.
func (c *Compressed) Close() error { return c.inner.Close() }
