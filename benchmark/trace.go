package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/core"
	"bbmig/internal/transport"
)

// The traced pass measures every layer from outside the engine: timing
// decorators around the devices and connections it is handed, and the phase
// events it already publishes. Spans stay in memory and are written when the
// run ends; end-to-end numbers never come from a traced migration.

// Sides of a migration, as indices into per-side arrays.
const (
	sideSource = 0
	sideDest   = 1
)

var sideName = [2]string{"source", "dest"}

// fullSpanMigrations is how many migrations of a traced run keep their leaf
// spans (device extents, frames); later ones keep phases and aggregates.
const fullSpanMigrations = 3

// maxLeafSpans caps the leaf spans kept per migration so a per-block
// workload cannot grow the trace without bound; the remainder is counted.
const maxLeafSpans = 60000

// span is one timed interval of the trace file.
type span struct {
	Kind      string  `json:"kind"` // always "span"
	Migration int     `json:"migration"`
	ID        int64   `json:"id"`
	Parent    int64   `json:"parent"`
	Name      string  `json:"name"`
	Side      string  `json:"side,omitempty"`
	StartUs   float64 `json:"start_us"`
	DurUs     float64 `json:"dur_us"`
	Blocks    int     `json:"blocks,omitempty"`
	Bytes     int     `json:"bytes,omitempty"`
	Type      string  `json:"type,omitempty"`
}

// tracer owns the spans and per-migration aggregates of one traced run.
type tracer struct {
	origin time.Time
	nextID atomic.Int64

	mu         sync.Mutex
	spans      []span
	aggregates []map[string]any
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.origin).Nanoseconds()) / 1e3 }

func (t *tracer) add(s span) {
	s.Kind = "span"
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write dumps spans then aggregates as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	for _, a := range t.aggregates {
		if err := enc.Encode(a); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cover accumulates the union of the intervals during which at least one
// child call (a device read, a frame send) of the source was in progress.
// Source phase time outside that union is the engine's own: core.self_share.
type cover struct {
	mu     sync.Mutex
	active int
	since  time.Time
	total  time.Duration
}

func (c *cover) enter(at time.Time) {
	c.mu.Lock()
	if c.active == 0 {
		c.since = at
	}
	c.active++
	c.mu.Unlock()
}

func (c *cover) exit(at time.Time) {
	c.mu.Lock()
	c.active--
	if c.active == 0 {
		c.total += at.Sub(c.since)
	}
	c.mu.Unlock()
}

// ioCounters is one direction of one device: calls, and time inside them.
type ioCounters struct {
	blocks atomic.Int64
	ns     atomic.Int64
}

// maxMsgType bounds the per-frame-type counter arrays; the protocol's
// numbering is far below it.
const maxMsgType = 64

// msgName caches MsgType.String(), which builds its table on every call — too
// dear for once per traced frame.
var msgName = func() (names [maxMsgType]string) {
	for i := range names {
		names[i] = transport.MsgType(i).String()
	}
	return
}()

// frameCounters is one direction of one connection, split by frame type.
type frameCounters struct {
	frames [maxMsgType]atomic.Int64
	bytes  [maxMsgType]atomic.Int64
	ns     [maxMsgType]atomic.Int64
}

func (f *frameCounters) note(t transport.MsgType, size int, d time.Duration) {
	i := int(t) % maxMsgType
	f.frames[i].Add(1)
	f.bytes[i].Add(int64(size))
	f.ns[i].Add(d.Nanoseconds())
}

func (f *frameCounters) totals() (frames, bytes, ns int64) {
	for i := 0; i < maxMsgType; i++ {
		frames += f.frames[i].Load()
		bytes += f.bytes[i].Load()
		ns += f.ns[i].Load()
	}
	return
}

func (f *frameCounters) byType() map[string]map[string]int64 {
	out := map[string]map[string]int64{}
	for i := 0; i < maxMsgType; i++ {
		if n := f.frames[i].Load(); n > 0 {
			out[msgName[i]] = map[string]int64{
				"frames": n, "bytes": f.bytes[i].Load(), "ns": f.ns[i].Load(),
			}
		}
	}
	return out
}

// migTrace is the trace context of one migration.
type migTrace struct {
	tr    *tracer
	index int
	root  int64
	leaf  bool // keep leaf spans for this migration

	leaves  atomic.Int64
	dropped atomic.Int64

	phaseID [2]atomic.Int64 // current phase span per side; leaf spans hang off it

	phaseMu    sync.Mutex
	phaseStart [2]map[string]time.Time
	phaseDur   [2]map[string]time.Duration

	srcCover cover

	read, write [2]ioCounters // per side: device reads, device writes
	send, recv  [2]frameCounters

	runs [2][2]runSpan // per side, per direction (0 read, 1 write): open extent-level span
}

func (t *tracer) begin(index int) *migTrace {
	mt := &migTrace{tr: t, index: index, leaf: index < fullSpanMigrations, root: t.nextID.Add(1)}
	for s := range mt.phaseStart {
		mt.phaseStart[s] = map[string]time.Time{}
		mt.phaseDur[s] = map[string]time.Duration{}
		mt.phaseID[s].Store(mt.root)
	}
	return mt
}

// onEvent is the core.EventFunc of one side: phase transitions become spans.
func (mt *migTrace) onEvent(side int) core.EventFunc {
	return func(ev core.Event) {
		switch ev.Kind {
		case core.EventPhaseStart:
			now := time.Now()
			id := mt.tr.nextID.Add(1)
			mt.phaseMu.Lock()
			mt.phaseStart[side][ev.Phase] = now
			mt.phaseMu.Unlock()
			mt.phaseID[side].Store(id)
		case core.EventPhaseEnd:
			now := time.Now()
			mt.phaseMu.Lock()
			start, ok := mt.phaseStart[side][ev.Phase]
			if ok {
				mt.phaseDur[side][ev.Phase] += now.Sub(start)
			}
			mt.phaseMu.Unlock()
			if ok {
				mt.tr.add(span{
					Migration: mt.index, ID: mt.phaseID[side].Load(), Parent: mt.root,
					Name: "phase:" + ev.Phase, Side: sideName[side],
					StartUs: mt.tr.us(start), DurUs: float64(now.Sub(start).Nanoseconds()) / 1e3,
				})
			}
		}
	}
}

func (mt *migTrace) phase(side int, name string) time.Duration {
	mt.phaseMu.Lock()
	defer mt.phaseMu.Unlock()
	return mt.phaseDur[side][name]
}

func (mt *migTrace) phaseSum(side int) time.Duration {
	mt.phaseMu.Lock()
	defer mt.phaseMu.Unlock()
	var sum time.Duration
	for _, d := range mt.phaseDur[side] {
		sum += d
	}
	return sum
}

// leafSpan records one leaf span if this migration keeps them and the cap
// has room.
func (mt *migTrace) leafSpan(side int, name string, start, end time.Time, blocks, bytes int, typ string) {
	if !mt.leaf {
		return
	}
	if mt.leaves.Add(1) > maxLeafSpans {
		mt.dropped.Add(1)
		return
	}
	mt.tr.add(span{
		Migration: mt.index, ID: mt.tr.nextID.Add(1), Parent: mt.phaseID[side].Load(),
		Name: name, Side: sideName[side],
		StartUs: mt.tr.us(start), DurUs: float64(end.Sub(start).Nanoseconds()) / 1e3,
		Blocks: blocks, Bytes: bytes, Type: typ,
	})
}

// runSpan coalesces per-block device calls into extent-level spans: a call
// for the block after the previous one, starting within runGap of its end,
// extends the open span.
type runSpan struct {
	mu         sync.Mutex
	open       bool
	start, end time.Time
	next       int
	blocks     int
}

const runGap = 50 * time.Microsecond

var ioName = [2]string{"blockdev.read", "blockdev.write"}

func (mt *migTrace) noteIO(side, dir, block, blockSize int, start, end time.Time) {
	if !mt.leaf {
		return
	}
	r := &mt.runs[side][dir]
	r.mu.Lock()
	if r.open && block == r.next && start.Sub(r.end) < runGap {
		r.end, r.next, r.blocks = end, block+1, r.blocks+1
		r.mu.Unlock()
		return
	}
	wasOpen, pStart, pEnd, pBlocks := r.open, r.start, r.end, r.blocks
	r.open, r.start, r.end, r.next, r.blocks = true, start, end, block+1, 1
	r.mu.Unlock()
	if wasOpen {
		mt.leafSpan(side, ioName[dir], pStart, pEnd, pBlocks, pBlocks*blockSize, "")
	}
}

// finish closes the open spans and records the migration span and the
// aggregate line. extra carries the harness's own per-migration numbers.
func (mt *migTrace) finish(start, end time.Time, blockSize int, extra map[string]any) {
	for side := range mt.runs {
		for dir := range mt.runs[side] {
			r := &mt.runs[side][dir]
			if r.open {
				mt.leafSpan(side, ioName[dir], r.start, r.end, r.blocks, r.blocks*blockSize, "")
				r.open = false
			}
		}
	}
	mt.tr.add(span{
		Migration: mt.index, ID: mt.root, Name: "migration",
		StartUs: mt.tr.us(start), DurUs: float64(end.Sub(start).Nanoseconds()) / 1e3,
	})
	agg := map[string]any{"kind": "aggregate", "migration": mt.index, "dropped_leaf_spans": mt.dropped.Load()}
	for side := 0; side < 2; side++ {
		phases := map[string]float64{}
		mt.phaseMu.Lock()
		for name, d := range mt.phaseDur[side] {
			phases[name] = d.Seconds()
		}
		mt.phaseMu.Unlock()
		agg[sideName[side]] = map[string]any{
			"phase_s":     phases,
			"read_blocks": mt.read[side].blocks.Load(), "read_ns": mt.read[side].ns.Load(),
			"write_blocks": mt.write[side].blocks.Load(), "write_ns": mt.write[side].ns.Load(),
			"send": mt.send[side].byType(), "recv": mt.recv[side].byType(),
		}
	}
	agg["source_child_cover_s"] = mt.srcCover.total.Seconds()
	for k, v := range extra {
		agg[k] = v
	}
	mt.tr.mu.Lock()
	mt.tr.aggregates = append(mt.tr.aggregates, agg)
	mt.tr.mu.Unlock()
}

// tracedDev times every block read and write of a device. It is a plain
// Device: wrapDevice picks the Volume-capable variant when the inner device
// is one, so Backend.Volume() answers exactly as it does for the bare device.
type tracedDev struct {
	inner blockdev.Device
	mt    *migTrace
	side  int
}

func (d *tracedDev) BlockSize() int { return d.inner.BlockSize() }
func (d *tracedDev) NumBlocks() int { return d.inner.NumBlocks() }

func (d *tracedDev) ReadBlock(n int, dst []byte) error {
	return timedIO(d.mt, d.side, 0, n, d.inner.BlockSize(), func() error { return d.inner.ReadBlock(n, dst) })
}

func (d *tracedDev) WriteBlock(n int, src []byte) error {
	return timedIO(d.mt, d.side, 1, n, d.inner.BlockSize(), func() error { return d.inner.WriteBlock(n, src) })
}

// AllocatedBitmap forwards blockdev.Allocator; a device that cannot say
// reports every block allocated, which is always safe.
func (d *tracedDev) AllocatedBitmap() *bitmap.Bitmap {
	if a, ok := d.inner.(blockdev.Allocator); ok {
		return a.AllocatedBitmap()
	}
	return bitmap.NewAllSet(d.inner.NumBlocks())
}

func timedIO(mt *migTrace, side, dir, block, blockSize int, op func() error) error {
	start := time.Now()
	if side == sideSource {
		mt.srcCover.enter(start)
	}
	err := op()
	end := time.Now()
	if side == sideSource {
		mt.srcCover.exit(end)
	}
	c := &mt.read[side]
	if dir == 1 {
		c = &mt.write[side]
	}
	c.blocks.Add(1)
	c.ns.Add(end.Sub(start).Nanoseconds())
	mt.noteIO(side, dir, block, blockSize, start, end)
	return err
}

// tracedVol is tracedDev over a blockdev.Volume: snapshots are traced too,
// into the same counters, because the engine's pre-copy passes read them.
type tracedVol struct {
	tracedDev
	vol blockdev.Volume
}

func (v *tracedVol) Snapshot() blockdev.Snapshot {
	return &tracedSnap{snap: v.vol.Snapshot(), mt: v.mt, side: v.side}
}

func (v *tracedVol) Release() error { return v.vol.Release() }

type tracedSnap struct {
	snap blockdev.Snapshot
	mt   *migTrace
	side int
}

func (s *tracedSnap) BlockSize() int { return s.snap.BlockSize() }
func (s *tracedSnap) NumBlocks() int { return s.snap.NumBlocks() }

func (s *tracedSnap) ReadBlock(n int, dst []byte) error {
	return timedIO(s.mt, s.side, 0, n, s.snap.BlockSize(), func() error { return s.snap.ReadBlock(n, dst) })
}

func (s *tracedSnap) WriteBlock(n int, src []byte) error { return s.snap.WriteBlock(n, src) }
func (s *tracedSnap) Release()                           { s.snap.Release() }

// wrapDevice decorates dev for tracing, preserving its Volume capability.
func wrapDevice(dev blockdev.Device, mt *migTrace, side int) blockdev.Device {
	td := tracedDev{inner: dev, mt: mt, side: side}
	if vol, ok := dev.(blockdev.Volume); ok {
		return &tracedVol{tracedDev: td, vol: vol}
	}
	return &td
}

// tracedConn times every frame of a connection by type. Messages pass
// through untouched, so payload ownership (Send borrows, Recv transfers)
// is exactly the inner connection's.
type tracedConn struct {
	inner transport.Conn
	mt    *migTrace
	side  int
}

func (c *tracedConn) Send(m transport.Message) error {
	start := time.Now()
	if c.side == sideSource {
		c.mt.srcCover.enter(start)
	}
	err := c.inner.Send(m)
	end := time.Now()
	if c.side == sideSource {
		c.mt.srcCover.exit(end)
	}
	c.mt.send[c.side].note(m.Type, m.FrameSize(), end.Sub(start))
	c.mt.leafSpan(c.side, "transport.send", start, end, 0, m.FrameSize(), msgName[int(m.Type)%maxMsgType])
	return err
}

func (c *tracedConn) Recv() (transport.Message, error) {
	start := time.Now()
	m, err := c.inner.Recv()
	if err != nil {
		return m, err
	}
	end := time.Now()
	c.mt.recv[c.side].note(m.Type, m.FrameSize(), end.Sub(start))
	c.mt.leafSpan(c.side, "transport.recv", start, end, 0, m.FrameSize(), msgName[int(m.Type)%maxMsgType])
	return m, nil
}

func (c *tracedConn) Close() error { return c.inner.Close() }
