package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/clock"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
)

// This file is the transfer substrate every migration scheme composes:
// connection decoration (metering, negotiated compression, policy pacing),
// the handshake, the block/extent/page send paths, the iterative pre-copy
// scaffolding, and the destination-side frame appliers. TPM, IM, and the
// three comparison baselines are phase pipelines over these primitives —
// they differ in which phases they chain, not in how bytes move.

// phase is one named step of a migration pipeline.
type phase struct {
	name string
	run  func() error
}

// transfer is the per-endpoint substrate state.
type transfer struct {
	cfg     Config
	host    Host
	srcDev  blockdev.Device // source read path: live device, or a frozen snapshot of it
	clk     clock.Clock
	conn    transport.Conn   // engine-facing top of the decorator stack
	meter   *transport.Meter // wire-byte accounting, closest to the raw conn
	limiter *clock.RateLimiter
	pol     Policy
	ev      *emitter
	start   time.Duration

	// resendAll makes pre-copy passes send units that are already dirty
	// again, as the engine did before owedCursor learned to skip them. Only
	// tests set it: it is the reference the skip is measured against.
	resendAll bool

	// resumable-session state. sess is always non-nil; swap is the stack's
	// rebind point (nil when the session cannot resume, keeping the default
	// stack identical to the seed's). destState, ckpt, and resumeIter are
	// wired by the endpoint runs that support resumption.
	sess       *session
	swap       *transport.Swappable
	destState  func() destProgress
	ckpt       func(phase string, iter int, pending *bitmap.Bitmap)
	resumeIter map[string]*iterResume

	// content-dedup state (Config.Dedup). awaitWant is the source's
	// advert-reply hook, wired by sourceRun.startup (the endpoint read loop
	// routes MsgHashWant frames into it); nil selects the literal send
	// paths. dedupBlocks counts blocks this source moved by reference.
	awaitWant   func(arg uint64) ([]byte, error)
	dedupBlocks int

	// delta state (Config.Delta). awaitDeltaSig is the source's
	// signature-reply hook, wired by sourceRun.startup (the endpoint read
	// loop routes MsgDeltaSig replies into it); nil selects the literal
	// send paths. takeDeltaNaks drains the refusals collected since the
	// last fence. deltaBlocks counts blocks this source moved as patches;
	// deltaPending counts patches sent since the last fence.
	awaitDeltaSig func(arg uint64) ([]byte, error)
	takeDeltaNaks func() []uint64
	deltaBlocks   int
	deltaPending  int
}

// newTransfer decorates conn and assembles the substrate. cfg must already
// have defaults applied. The decorator order is meter innermost (it counts
// actual wire bytes) with compression above it when negotiated; a resumable
// session slips a rebindable shim underneath so a reconnect swaps the dead
// link without disturbing metering or negotiated compression.
func newTransfer(cfg Config, host Host, conn transport.Conn, scheme, side string) (*transfer, error) {
	t := &transfer{cfg: cfg, host: host, srcDev: host.Backend.Device(), clk: cfg.Clock, pol: cfg.Policy, sess: &session{}}
	if (side == "source" && cfg.MaxRetries > 0) || (side != "source" && cfg.WaitReconnect != nil) {
		t.swap = transport.NewSwappable(conn)
		conn = t.swap
	}
	t.meter = transport.NewMeter(conn)
	t.conn = t.meter
	if cfg.CompressLevel != 0 {
		cc, err := transport.NewCompressedPolicy(t.meter, cfg.CompressLevel, t.pol.CompressPayload, t.pol.ObserveCompression)
		if err != nil {
			return nil, err
		}
		t.conn = cc
	}
	if rate := t.pol.PrecopyRate(cfg.BandwidthLimit); rate != clock.Unlimited && rate > 0 {
		t.limiter = clock.NewRateLimiter(t.clk, rate, rate/10)
	}
	t.ev = newEmitter(cfg.OnEvent, t.clk, scheme, side)
	t.start = t.clk.Now()
	return t, nil
}

// runPhases executes the pipeline, announcing each phase on the event
// stream. The terminal Completed/Failed event is the caller's to emit
// (via ev.finish) once scheme-specific bookkeeping is done.
func (t *transfer) runPhases(phases ...phase) error {
	for _, ph := range phases {
		t.ev.phaseStart(ph.name)
		if err := ph.run(); err != nil {
			return err
		}
		t.ev.phaseEnd(ph.name)
	}
	return nil
}

// send transmits m, applying the pre-copy pacing cap when limited is true
// and feeding the progress heartbeat. The policy's pacing verdict is
// re-consulted per paced frame, so a policy whose rate moves over time — a
// BudgetPolicy re-sharing a cluster-wide budget as migrations come and go —
// takes effect mid-iteration. Rate changes are honoured only when the
// migration started with a finite rate (otherwise no limiter exists to
// retune, keeping the unlimited path identical to the seed's).
func (t *transfer) send(m transport.Message, limited bool) error {
	if limited && t.limiter != nil {
		if rate := t.pol.PrecopyRate(t.cfg.BandwidthLimit); rate > 0 && rate != t.limiter.Rate() {
			t.limiter.SetRate(rate)
		}
		t.limiter.Wait(m.FrameSize())
	}
	if err := t.conn.Send(m); err != nil {
		return err
	}
	t.noteWire()
	return nil
}

// noteWire feeds the progress heartbeat with the meter's view of the wire,
// so compressed streams report actual wire bytes, consistent with
// Report.MigratedBytes.
func (t *transfer) noteWire() {
	t.ev.noteBytes(t.meter.BytesSent() + t.meter.BytesReceived())
}

// handshake runs the HELLO/HELLO_ACK exchange from the source side. A
// resumable source (MaxRetries > 0) appends a freshly minted session token
// to the geometry payload; the destination's ack reports whether it will
// honour resumes, and sessions the peer declines run fail-fast.
func (t *transfer) handshake() error {
	dev := t.host.Backend.Device()
	mem := t.host.VM.Memory()
	geom := transport.Geometry{
		BlockSize: dev.BlockSize(), NumBlocks: dev.NumBlocks(),
		PageSize: mem.PageSize(), NumPages: mem.NumPages(),
	}
	gb, err := geom.MarshalBinary()
	if err != nil {
		return err
	}
	if t.cfg.MaxRetries > 0 {
		token, err := transport.NewSessionToken()
		if err != nil {
			return err
		}
		t.sess.token = token
		t.sess.offered = true
		gb = append(gb, token[:]...)
	}
	if err := t.send(transport.Message{Type: transport.MsgHello, Arg: transport.ProtocolVersion, Payload: gb}, false); err != nil {
		return err
	}
	ack, err := t.conn.Recv()
	if err != nil {
		return fmt.Errorf("core: waiting for hello ack: %w", err)
	}
	if ack.Type != transport.MsgHelloAck {
		return fmt.Errorf("core: unexpected handshake reply %v", ack.Type)
	}
	t.sess.setResumable(t.sess.offered && ack.Arg&transport.HelloAckResume != 0)
	return nil
}

// acceptHandshake runs the destination side of the handshake, validating
// version and geometry against the prepared VBD and VM shell.
func (t *transfer) acceptHandshake() error {
	dev := t.host.Backend.Device()
	mem := t.host.VM.Memory()
	hello, err := t.conn.Recv()
	if err != nil {
		return fmt.Errorf("core: waiting for hello: %w", err)
	}
	if hello.Type != transport.MsgHello {
		return fmt.Errorf("core: expected HELLO, got %v", hello.Type)
	}
	if hello.Arg != transport.ProtocolVersion {
		return fmt.Errorf("core: protocol version %d, want %d", hello.Arg, transport.ProtocolVersion)
	}
	// A resumable source appends a 16-byte session token to the geometry.
	// Accept it (and advertise resume support in the ack) only when this
	// destination was given a reconnect path; otherwise the session
	// degrades to fail-fast and the token is ignored.
	var ackArg uint64
	payload := hello.Payload
	if len(payload) == 32+16 {
		token, err := transport.TokenFromBytes(payload[32:])
		if err != nil {
			return err
		}
		payload = payload[:32]
		if t.cfg.WaitReconnect != nil {
			t.sess.token = token
			t.sess.offered = true
			t.sess.setResumable(true)
			ackArg = transport.HelloAckResume
		}
	}
	var geom transport.Geometry
	if err := geom.UnmarshalBinary(payload); err != nil {
		return err
	}
	if geom.BlockSize != dev.BlockSize() || geom.NumBlocks != dev.NumBlocks() {
		return fmt.Errorf("core: source disk %dx%d, prepared VBD %dx%d",
			geom.NumBlocks, geom.BlockSize, dev.NumBlocks(), dev.BlockSize())
	}
	if geom.PageSize != mem.PageSize() || geom.NumPages != mem.NumPages() {
		return fmt.Errorf("core: source memory %dx%d, shell %dx%d",
			geom.NumPages, geom.PageSize, mem.NumPages(), mem.PageSize())
	}
	hello.Release() // token and geometry both copied out above
	return t.send(transport.Message{Type: transport.MsgHelloAck, Arg: ackArg}, false)
}

// effectiveMaxExtent bounds an extent limit by what one frame may carry
// (MaxPayload, minus one byte for the marker a Compressed decorator prepends
// to incompressible payloads) and what the device holds, so an oversized
// limit can neither demand absurd staging buffers nor produce unencodable
// frames.
func effectiveMaxExtent(maxExt int, dev blockdev.Device) int {
	if limit := (transport.MaxPayload - 1) / dev.BlockSize(); maxExt > limit {
		maxExt = limit
	}
	if n := dev.NumBlocks(); maxExt > n {
		maxExt = n
	}
	if maxExt < 1 {
		maxExt = 1
	}
	return maxExt
}

// extentBlocks asks the policy for the live coalescing limit and clamps it.
func (t *transfer) extentBlocks(phase string) int {
	return effectiveMaxExtent(t.pol.ExtentBlocks(phase, t.cfg.MaxExtentBlocks), t.host.Backend.Device())
}

// extentMessage frames one extent's data. Single-block extents keep the
// seed's MsgBlockData form so extent coalescing alone never changes how a
// lone block looks on the wire.
func extentMessage(e bitmap.Extent, data []byte) transport.Message {
	if e.Count == 1 {
		return transport.Message{Type: transport.MsgBlockData, Arg: uint64(e.Start), Payload: data}
	}
	return transport.Message{Type: transport.MsgExtent, Arg: transport.ExtentArg(e.Start, e.Count), Payload: data}
}

// owedCursor is the one place that decides which units of a send pass
// travel and in what extents: every walker below — sequential, readahead,
// pooled, dedup, delta, pages — draws its extents from next.
//
// A cursor built with a live view leaves out every unit the tracker already
// shows dirty again at the moment the extent is cut. The tracker still owes
// such a unit, so it rides the next iteration, or the freeze bitmap / final
// page set, once instead of twice. It is also dropped from bm, the
// iteration's checkpointed owed set, so a reconnect does not resend it.
// Only preCopyLoop builds cursors with a live view; every other send
// (freeze-and-copy, post-copy, the baselines' single passes) sends all of bm.
//
// Not safe for concurrent use: each walker calls next from one goroutine.
type owedCursor struct {
	bm      *bitmap.Bitmap
	live    bitmap.View
	pos     int
	skipped int
}

// allOf returns a cursor with no live view: it sends every unit of bm.
func allOf(bm *bitmap.Bitmap) *owedCursor { return &owedCursor{bm: bm} }

// next cuts the next extent of at most max (>= 1) units, or a zero-Count
// extent when the pass is over.
func (c *owedCursor) next(max int) bitmap.Extent {
	ext, skipped := c.bm.NextExtentExcluding(c.live, c.pos, max)
	end := ext.Start
	if ext.Count == 0 {
		end = c.bm.Len()
	}
	if skipped > 0 {
		c.bm.ClearRange(c.pos, end)
		c.skipped += skipped
	}
	c.pos = end + ext.Count
	return ext
}

// readExtent reads ext's blocks from dev into data, which must hold them.
func readExtent(dev blockdev.Device, ext bitmap.Extent, data []byte) error {
	bs := dev.BlockSize()
	for k := 0; k < ext.Count; k++ {
		if err := dev.ReadBlock(ext.Start+k, data[k*bs:(k+1)*bs]); err != nil {
			return err
		}
	}
	return nil
}

// sendLiteral frames and sends one extent's data and returns its wire bytes.
func (t *transfer) sendLiteral(ext bitmap.Extent, data []byte, limited bool) (int64, error) {
	m := extentMessage(ext, data)
	return int64(m.FrameSize()), t.send(m, limited)
}

// sendBlocks streams the blocks cur yields and returns the count and payload
// wire bytes. The path is chosen by what was negotiated and by Workers and
// Readahead; with none of them the sequential literal path at the default
// extent limit of one block is wire-identical to the seed protocol.
func (t *transfer) sendBlocks(cur *owedCursor, phaseName string, limited bool) (int, int64, error) {
	switch {
	case t.cfg.Dedup && t.awaitWant != nil:
		// Negotiated content dedup replaces the literal paths for disk
		// sends; the advert/want alternation is inherently sequential, so
		// Workers does not apply here. When Delta is also negotiated the
		// wanted (would-be literal) sub-runs route through the delta
		// protocol inside sendDedupExtent.
		return t.sendExtentsDedup(cur, phaseName, limited)
	case t.cfg.Delta && t.awaitDeltaSig != nil:
		// Negotiated delta encoding without dedup: every extent takes the
		// signature round trip, equally sequential.
		return t.sendExtentsDelta(cur, phaseName, limited)
	case t.cfg.Workers > 1:
		return t.sendExtentsPooled(cur, phaseName, limited)
	case t.cfg.Readahead > 0:
		return t.sendExtentsReadahead(cur, phaseName, limited)
	}
	return t.sendExtentsSeq(cur, phaseName, func(ext bitmap.Extent, data []byte) (int64, error) {
		return t.sendLiteral(ext, data, limited)
	})
}

// sendExtentsSeq is the sequential walker shared by the literal, dedup and
// delta paths: it reads each extent into one reused staging buffer and hands
// it to encode, which frames and sends it and returns the wire bytes it
// cost. The policy is re-consulted for the coalescing limit before each
// extent so an adaptive policy can grow it mid-iteration.
func (t *transfer) sendExtentsSeq(cur *owedCursor, phaseName string, encode func(bitmap.Extent, []byte) (int64, error)) (int, int64, error) {
	dev := t.srcDev
	bs := dev.BlockSize()
	var buf []byte
	defer func() { transport.PutBuf(buf) }()
	sent := 0
	var bytes int64
	for {
		maxExt := t.extentBlocks(phaseName)
		ext := cur.next(maxExt)
		if ext.Count == 0 {
			return sent, bytes, nil
		}
		if need := ext.Count * bs; cap(buf) < need {
			transport.PutBuf(buf)
			buf = transport.GetBuf(maxExt * bs)
		}
		data := buf[:ext.Count*bs]
		extStart := t.clk.Now()
		if err := readExtent(dev, ext, data); err != nil {
			return sent, bytes, err
		}
		wire, err := encode(ext, data)
		if err != nil {
			return sent, bytes, err
		}
		t.pol.ObserveExtent(ext.Count, wire, t.clk.Now()-extStart)
		sent += ext.Count
		bytes += wire
	}
}

// firstErr latches the first error a worker pool hits.
type firstErr struct {
	failed atomic.Bool
	mu     sync.Mutex
	err    error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
		f.failed.Store(true)
	}
	f.mu.Unlock()
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// sendExtentsPooled fans cur's extents across cfg.Workers goroutines, each
// reading an extent from the device and sending it, so device reads,
// optional compression, and transport writes of different extents overlap.
// Within one iteration every block number appears at most once, so the
// destination may apply the extents in any order; the engine's control
// frames bound the iteration on both sides.
func (t *transfer) sendExtentsPooled(cur *owedCursor, phaseName string, limited bool) (int, int64, error) {
	dev := t.srcDev
	bs := dev.BlockSize()
	workers := t.cfg.Workers
	jobs := make(chan bitmap.Extent, workers*2)
	var sent, bytes atomic.Int64
	var fail firstErr
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			defer func() { transport.PutBuf(buf) }()
			for ext := range jobs {
				if fail.failed.Load() {
					continue // drain the queue so the producer never blocks
				}
				if need := ext.Count * bs; cap(buf) < need {
					transport.PutBuf(buf)
					buf = transport.GetBuf(need)
				}
				data := buf[:ext.Count*bs]
				extStart := t.clk.Now()
				var wire int64
				err := readExtent(dev, ext, data)
				if err == nil {
					wire, err = t.sendLiteral(ext, data, limited)
				}
				if err != nil {
					fail.set(err)
					continue
				}
				t.pol.ObserveExtent(ext.Count, wire, t.clk.Now()-extStart)
				sent.Add(int64(ext.Count))
				bytes.Add(wire)
			}
		}()
	}
	for !fail.failed.Load() {
		ext := cur.next(t.extentBlocks(phaseName))
		if ext.Count == 0 {
			break
		}
		jobs <- ext
	}
	close(jobs)
	wg.Wait()
	return int(sent.Load()), bytes.Load(), fail.get()
}

// sendExtentsReadahead walks cur's extents like sendExtentsSeq but decouples
// device reads from transport writes: a prefetch goroutine assembles up to
// cfg.Readahead extents into pooled buffers ahead of the sender, so the
// next extent's blocks are read while the current one is on the wire. The
// sender drains the queue in cursor order, which keeps the frame sequence
// — and therefore the golden wire traces — identical to the sequential
// path.
func (t *transfer) sendExtentsReadahead(cur *owedCursor, phaseName string, limited bool) (int, int64, error) {
	dev := t.srcDev
	bs := dev.BlockSize()
	type job struct {
		ext  bitmap.Extent
		data []byte // pooled; ownership passes to the sender
		err  error
	}
	jobs := make(chan job, t.cfg.Readahead)
	stop := make(chan struct{})
	go func() {
		defer close(jobs)
		for {
			ext := cur.next(t.extentBlocks(phaseName))
			if ext.Count == 0 {
				return
			}
			data := transport.GetBuf(ext.Count * bs)
			jerr := readExtent(dev, ext, data)
			select {
			case jobs <- job{ext: ext, data: data, err: jerr}:
			case <-stop:
				transport.PutBuf(data)
				return
			}
			if jerr != nil {
				return
			}
		}
	}()
	defer func() {
		close(stop)
		for j := range jobs { // reclaim extents prefetched past a failure
			transport.PutBuf(j.data)
		}
	}()
	sent := 0
	var bytes int64
	for j := range jobs {
		if j.err != nil {
			transport.PutBuf(j.data)
			return sent, bytes, j.err
		}
		sendStart := t.clk.Now()
		wire, err := t.sendLiteral(j.ext, j.data, limited)
		transport.PutBuf(j.data)
		if err != nil {
			return sent, bytes, err
		}
		t.pol.ObserveExtent(j.ext.Count, wire, t.clk.Now()-sendStart)
		sent += j.ext.Count
		bytes += wire
	}
	return sent, bytes, nil
}

// sendPages streams the pages cur yields. Pages are never coalesced — each
// MsgMemPage is its own frame, the Xen-style format.
func (t *transfer) sendPages(cur *owedCursor, limited bool) (int, int64, error) {
	mem := t.host.VM.Memory()
	buf := transport.GetBuf(mem.PageSize())
	defer transport.PutBuf(buf)
	sent := 0
	var bytes int64
	for ext := cur.next(1); ext.Count > 0; ext = cur.next(1) {
		if err := mem.ReadPage(ext.Start, buf); err != nil {
			return sent, bytes, err
		}
		m := transport.Message{Type: transport.MsgMemPage, Arg: uint64(ext.Start), Payload: buf}
		if err := t.send(m, limited); err != nil {
			return sent, bytes, err
		}
		sent++
		bytes += int64(m.FrameSize())
	}
	return sent, bytes, nil
}

// snapshotForReads freezes the source read path on a point-in-time view of
// the backend device for the duration of one send pass. When the backend
// was wired with a snapshot-capable blockdev.Volume (hostd's bcache path),
// every block of the pass is read from the moment the pass began — guest
// writes racing the pass land in the dirty tracker and travel next
// iteration instead of tearing this one. For a plain device this is a
// no-op, which keeps the default engine path byte-identical to the seed.
// The returned restore function must be called when the pass ends.
func (t *transfer) snapshotForReads() func() {
	vol, ok := t.host.Backend.Volume()
	if !ok {
		return func() {}
	}
	snap := vol.Snapshot()
	t.srcDev = snap
	return func() {
		t.srcDev = t.host.Backend.Device()
		snap.Release()
	}
}

// preCopySpec abstracts the disk/memory differences of one iterative
// pre-copy loop: which control frames bound an iteration, how to move one
// bitmap's worth of data, and how dirtying is observed.
type preCopySpec struct {
	phase              string
	startMsg, endMsg   transport.MsgType
	threshold, maxIter int
	send               func(cur *owedCursor) (int, int64, error)
	live               bitmap.View // the tracker swapDirty drains: what a pass may skip
	dirtyCount         func() int
	swapDirty          func() *bitmap.Bitmap
	record             func(metrics.Iteration)
}

// preCopyLoop is the shared iteration scaffolding: iteration 1 sends the
// initial set, iteration k sends what was dirtied during k-1, and the policy
// decides when to stop. The remaining dirty set stays in the tracker for the
// next phase.
//
// A resumable source re-enters here mid-phase: a pending resumeIter entry
// replaces the start iteration and its bitmap (the blocks still owed after a
// reconnect), and every iteration start is checkpointed through ckpt so the
// next failure rewinds at most one iteration.
func (t *transfer) preCopyLoop(sp preCopySpec, initial *bitmap.Bitmap) error {
	toSend := initial
	startIter := 1
	if res := t.takeResume(sp.phase); res != nil {
		startIter, toSend = res.iter, res.pending
	}
	prev := toSend.Count()
	for iter := startIter; ; iter++ {
		if t.ckpt != nil {
			t.ckpt(sp.phase, iter, toSend)
		}
		iterStart := t.clk.Now()
		if err := t.send(transport.Message{Type: sp.startMsg, Arg: uint64(iter)}, true); err != nil {
			return err
		}
		cur := &owedCursor{bm: toSend, live: sp.live}
		if t.resendAll {
			cur = allOf(toSend)
		}
		sent, bytes, err := sp.send(cur)
		if err != nil {
			return err
		}
		if err := t.send(transport.Message{Type: sp.endMsg, Arg: uint64(sent)}, true); err != nil {
			return err
		}
		iterDur := t.clk.Now() - iterStart
		dirtyNow := sp.dirtyCount()
		sp.record(metrics.Iteration{
			Index: iter, Units: sent, Skipped: cur.skipped, Bytes: bytes, Duration: iterDur, DirtyEnd: dirtyNow,
		})
		st := IterationStat{
			Phase: sp.phase, Iteration: iter, Sent: sent, Skipped: cur.skipped, SentBytes: bytes,
			Duration: iterDur, Dirty: dirtyNow, PrevDirty: prev,
			Threshold: sp.threshold, MaxIterations: sp.maxIter,
			MaxExtentBlocks: t.cfg.MaxExtentBlocks,
		}
		t.ev.iterationEnd(st)
		if !t.pol.ContinuePreCopy(st) {
			return nil
		}
		prev = dirtyNow
		toSend = sp.swapDirty()
	}
}

// diskPreCopy runs the iterative disk copy (§IV-A-1). Iteration 1 sends the
// initial set (whole disk, or an incremental bitmap); iteration k sends the
// blocks dirtied during k-1. The remaining dirty blocks stay in the backend
// bitmap and ride to the destination in freeze-and-copy.
func (t *transfer) diskPreCopy(rep *metrics.Report, initial *bitmap.Bitmap) error {
	dev := t.host.Backend.Device()
	t.host.Backend.StartTracking()
	toSend := initial
	if toSend == nil {
		if alloc, ok := dev.(blockdev.Allocator); ok && t.cfg.SkipUnused {
			toSend = alloc.AllocatedBitmap()
		} else {
			toSend = bitmap.NewAllSet(dev.NumBlocks())
		}
	}
	return t.preCopyLoop(preCopySpec{
		phase:    PhaseDiskPreCopy,
		startMsg: transport.MsgIterStart, endMsg: transport.MsgIterEnd,
		threshold: t.cfg.DiskDirtyThreshold, maxIter: t.cfg.MaxDiskIters,
		send: func(cur *owedCursor) (int, int64, error) {
			restore := t.snapshotForReads()
			defer restore()
			return t.sendBlocks(cur, PhaseDiskPreCopy, true)
		},
		live:       t.host.Backend.DirtyView(),
		dirtyCount: t.host.Backend.DirtyCount,
		swapDirty:  t.host.Backend.SwapDirty,
		record: func(it metrics.Iteration) {
			rep.DiskIterations = append(rep.DiskIterations, it)
		},
	}, toSend)
}

// memPreCopy runs the Xen-style iterative memory pre-copy: iteration 1 sends
// every page, later iterations send pages dirtied during the previous one.
func (t *transfer) memPreCopy(rep *metrics.Report) error {
	mem := t.host.VM.Memory()
	mem.StartTracking()
	return t.preCopyLoop(preCopySpec{
		phase:    PhaseMemPreCopy,
		startMsg: transport.MsgMemIterStart, endMsg: transport.MsgMemIterEnd,
		threshold: t.cfg.MemDirtyThreshold, maxIter: t.cfg.MaxMemIters,
		send: func(cur *owedCursor) (int, int64, error) {
			return t.sendPages(cur, true)
		},
		live:       mem.DirtyView(),
		dirtyCount: mem.DirtyCount,
		swapDirty:  mem.SwapDirty,
		record: func(it metrics.Iteration) {
			rep.MemIterations = append(rep.MemIterations, it)
		},
	}, bitmap.NewAllSet(mem.NumPages()))
}

// --- Destination-side frame application ---

// checkExtent validates a MsgExtent frame against the prepared VBD.
func (t *transfer) checkExtent(m transport.Message) (bitmap.Extent, error) {
	start, count := transport.ExtentSplit(m.Arg)
	dev := t.host.Backend.Device()
	if count < 1 || start < 0 || start+count > dev.NumBlocks() {
		return bitmap.Extent{}, fmt.Errorf("core: extent [%d,+%d) outside %d-block VBD", start, count, dev.NumBlocks())
	}
	if want := count * dev.BlockSize(); len(m.Payload) != want {
		return bitmap.Extent{}, fmt.Errorf("core: extent [%d,+%d) payload %d bytes, want %d", start, count, len(m.Payload), want)
	}
	return bitmap.Extent{Start: start, Count: count}, nil
}

// applyBlock writes one MsgBlockData frame to the VBD.
func (t *transfer) applyBlock(m transport.Message) error {
	if err := t.host.Backend.Device().WriteBlock(int(m.Arg), m.Payload); err != nil {
		return fmt.Errorf("core: apply block %d: %w", m.Arg, err)
	}
	return nil
}

// applyExtent scatters one MsgExtent frame's blocks to the VBD.
func (t *transfer) applyExtent(m transport.Message) error {
	ext, err := t.checkExtent(m)
	if err != nil {
		return err
	}
	dev := t.host.Backend.Device()
	bs := dev.BlockSize()
	for k := 0; k < ext.Count; k++ {
		if err := dev.WriteBlock(ext.Start+k, m.Payload[k*bs:(k+1)*bs]); err != nil {
			return fmt.Errorf("core: apply block %d: %w", ext.Start+k, err)
		}
	}
	return nil
}

// applyPage writes one MsgMemPage frame into the VM shell's memory.
func (t *transfer) applyPage(m transport.Message) error {
	if err := t.host.VM.Memory().WritePage(int(m.Arg), m.Payload); err != nil {
		return fmt.Errorf("core: apply page %d: %w", m.Arg, err)
	}
	return nil
}

// takeResume consumes the re-entry state for one phase, if any.
func (t *transfer) takeResume(phase string) *iterResume {
	res := t.resumeIter[phase]
	if res != nil {
		delete(t.resumeIter, phase)
	}
	return res
}

// frameHandlers maps message types to appliers for recvLoop. A nil handler
// marks the type as an accepted phase marker with nothing to apply.
type frameHandlers map[transport.MsgType]func(transport.Message) error

// recvLoop receives frames, dispatching each to its handler, until the
// `until` type arrives. MsgError frames abort with the carried cause;
// unlisted types are protocol errors. The receive side of the byte heartbeat
// is fed here. Receives ride destRecv, so a resumable destination survives
// connection loss mid-loop: duplicate frames the reconnecting source re-sends
// are applied idempotently by the handlers.
//
// Buffer ownership: non-data frames are consumed synchronously by their
// handlers (every handler parses or copies what it keeps), so their pooled
// payloads are released here. Data frames pass through to appliers that may
// defer the write into the scatter pool; those release their own payloads
// once applied (or leave them to the GC on cold paths — see bufpool.go).
func (t *transfer) recvLoop(until transport.MsgType, handlers frameHandlers) error {
	for {
		m, err := t.destRecv()
		if err != nil {
			return fmt.Errorf("core: receive: %w", err)
		}
		t.noteWire()
		if m.Type == until {
			m.Release()
			return nil
		}
		if m.Type == transport.MsgError {
			return fmt.Errorf("core: source error: %s", m.Payload)
		}
		fn, ok := handlers[m.Type]
		if !ok {
			return fmt.Errorf("core: unexpected message %v", m.Type)
		}
		if fn == nil {
			m.Release()
			continue
		}
		if err := fn(m); err != nil {
			return err
		}
		if !transport.IsDataFrame(m.Type) && m.Type != transport.MsgDelta {
			// MsgDelta is the one non-data frame whose handler retains the
			// payload (the forward-and-replay queue); its replay loop
			// releases the buffers once applied.
			m.Release()
		}
	}
}
