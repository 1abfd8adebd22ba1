package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/dedup"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
)

// This file is the transfer substrate every migration scheme composes:
// connection decoration (metering, compression, pacing),
// the handshake, the block/extent/page send paths, the iterative pre-copy
// scaffolding, and the destination-side frame appliers. TPM, IM, and the
// three comparison baselines are phase lists over these primitives — they
// differ in which steps their phases chain, not in how bytes move.

// phase is one named entry of a scheme's phase list.
type phase struct {
	name string
	run  func() error
}

// steps chains step functions into one phase body, stopping at the first
// error.
func steps(fns ...func() error) func() error {
	return func() error {
		for _, fn := range fns {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	}
}

// transfer is the per-endpoint substrate state.
type transfer struct {
	cfg    Config
	host   Host
	dev    blockdev.Device  // the disk this endpoint's frames address
	srcDev blockdev.Device  // source read path: dev, or a frozen snapshot of it
	conn   transport.Conn   // engine-facing top of the decorator stack
	meter  *transport.Meter // wire-byte accounting, closest to the raw conn
	pace   *Pacer           // pre-copy pacing; nil when the first rate is unlimited
	ev     *emitter
	start  time.Time
	rep    *metrics.Report // this endpoint's view of the run

	// resendAll makes pre-copy passes send units that are already dirty
	// again, and every page literally, as the engine did before owedCursor
	// learned to skip them and pages learned deltas. Only tests set it: it is
	// the reference both are measured against.
	resendAll bool

	// stopRule, when non-nil, decides in place of ContinuePreCopy whether a
	// pre-copy phase runs another iteration, so a scripted guest gets the stop
	// shape its writes are laid out over — a fixed iteration count, or the
	// rule at thresholds below its hot set — which the Default* constants do
	// not produce. Only tests set it.
	stopRule func(IterationStat) bool

	// pages is the source's working-set evidence and base book: it picks the
	// form — literal, delta, or left to a later pass — of every page send.
	pages *vm.BaseBook

	// resumable-session state. sess is always non-nil; swap is the stack's
	// rebind point (nil when the session cannot resume, keeping the default
	// stack identical to the seed's). destState, ckpt, and resumeIter are
	// wired by the endpoint runs that support resumption.
	sess       *session
	swap       *transport.Swappable
	destState  func() destProgress
	ckpt       func(phase string, iter int, pending *bitmap.Bitmap)
	resumeIter map[string]*iterResume

	// awaitReply blocks until the destination answers an outstanding
	// request — an advert (MsgHashWant), a delta signature request or fence
	// (MsgDeltaSig) — with a frame of type typ echoing arg, and returns its
	// pooled payload: from the read loop's table for TPM/IM, an inline Recv
	// for pre-sync. Schemes that leave it nil (the baselines) send literally.
	awaitReply func(typ transport.MsgType, arg uint64) ([]byte, error)

	// dedupBlocks counts the blocks this source left to the destination at an
	// advert or sent as zero runs, atomically: the zero stage runs on every
	// lane of the literal chain.
	// deltaBlocks counts blocks sent as patches, deltaRefused those refused,
	// and deltaDeclined those whose patch was no smaller than the literal.
	// deltaNaks holds refusals until the fence re-sends them — a slice under
	// a mutex, not a bounded channel: a dropped refusal would leave the
	// destination holding stale content for blocks the source considers sent.
	dedupBlocks                              atomic.Int64
	deltaBlocks, deltaRefused, deltaDeclined int
	deltaMu                                  sync.Mutex
	deltaNaks                                []uint64

	// sentBytes adds up the wire bytes of every frame send sent: a send
	// pass's bytes are what it added.
	sentBytes atomic.Int64
}

// newTransfer assembles the substrate for one endpoint of a VM migration:
// newDiskTransfer over the host's VBD, plus the host itself for the memory,
// CPU and dirty-tracking phases.
func newTransfer(cfg Config, host Host, conn transport.Conn, scheme, side string) *transfer {
	t := newDiskTransfer(cfg, host.Backend.Device(), conn, scheme, side)
	t.host = host
	return t
}

// newDiskTransfer decorates conn and assembles the substrate over a bare
// disk. cfg must already have defaults applied. The decorator order is meter
// innermost (it counts actual wire bytes) with compression above it once the
// HELLO asks for it; a resumable session slips a rebindable shim underneath
// so a reconnect swaps the dead link without disturbing metering or
// compression.
func newDiskTransfer(cfg Config, dev blockdev.Device, conn transport.Conn, scheme, side string) *transfer {
	t := &transfer{cfg: cfg, dev: dev, srcDev: dev, sess: &session{}}
	t.rep = &metrics.Report{Scheme: scheme}
	if (side == "source" && cfg.MaxRetries > 0) || (side != "source" && cfg.WaitReconnect != nil) {
		t.swap = transport.NewSwappable(conn)
		conn = t.swap
	}
	t.meter = transport.NewMeter(conn)
	t.conn = t.meter
	t.pace = NewPacer(func() int64 {
		if cfg.Budget == nil {
			return cfg.BandwidthLimit
		}
		return min(cfg.BandwidthLimit, cfg.Budget.Share())
	})
	t.start = time.Now()
	t.ev = newEmitter(cfg.OnEvent, t.start, scheme, side)
	if side == "source" {
		t.stage()
	}
	return t
}

// stage opts the source's connection into staging data frames
// (transport.Stage), at most StageMax bytes and, when paced, at most the
// pacer's burst. Staged frames leave with the next control frame, at the
// bound, or at a flush, which the engine issues wherever it is about to wait
// on its peer: the end of a send pass, a pull reply. A
// compressing source stages nothing, for the reason transport.Compressed
// forwards no staging: the meter below it is opted in here, before the
// handshake stacks compression, and a staged batch of deflated frames would
// land on the destination's inflater at once, inside the freeze.
func (t *transfer) stage() {
	if t.cfg.CompressLevel != 0 {
		return
	}
	limit := int64(transport.StageMax)
	if t.pace != nil {
		limit = min(limit, t.pace.Burst())
	}
	transport.Stage(t.conn, int(limit))
}

// runPhases is the one phase runner: it executes phases from *cursor on,
// announcing each on the event stream and advancing the cursor as each
// completes, so a caller that repositions the cursor after a failure re-enters
// the list there with the same events a straight-through run produces.
func (t *transfer) runPhases(phases []phase, cursor *int) error {
	for *cursor < len(phases) {
		ph := phases[*cursor]
		t.ev.phaseStart(ph.name)
		if err := ph.run(); err != nil {
			return err
		}
		t.ev.phaseEnd(ph.name)
		*cursor++
	}
	return nil
}

// finish closes the run on either side: the terminal event, then the
// report's totals or, on failure, a best-effort abort notice to the peer.
func (t *transfer) finish(err error) error {
	t.ev.finish(err)
	if err != nil {
		_ = t.conn.Send(transport.Message{Type: transport.MsgError, Payload: []byte(err.Error())})
		return err
	}
	t.rep.TotalTime = time.Since(t.start)
	t.rep.MigratedBytes = t.meter.BytesSent() + t.meter.BytesReceived()
	return nil
}

// send transmits m, applying the pre-copy pacing cap when limited is true
// and feeding the progress heartbeat. The pacer re-reads the rate per paced
// frame, so a Config.Budget share that moves as migrations come and go takes
// effect mid-iteration. Rate changes are honoured only when the migration
// started with a finite rate (otherwise no pacer exists to retune, keeping
// the unlimited path identical to the seed's).
func (t *transfer) send(m transport.Message, limited bool) error {
	if limited && t.pace.Wait(m.FrameSize()) {
		t.stage() // the burst moved with the rate
	}
	if err := t.conn.Send(m); err != nil {
		return err
	}
	t.sentBytes.Add(int64(m.FrameSize()))
	t.noteWire()
	return nil
}

// noteWire feeds the progress heartbeat with the meter's view of the wire,
// so compressed streams report actual wire bytes, consistent with
// Report.MigratedBytes.
func (t *transfer) noteWire() {
	t.ev.noteBytes(t.meter.BytesSent() + t.meter.BytesReceived())
}

// helloCompress is caps bit 0 of MsgHello.Arg, above the 32-bit protocol
// version (WIRE.md §3).
const helloCompress = 1 << 32

// compressAfter stacks the compression decorator on the engine's connection
// from the next frame on, both ways, when hello asks for it. level is the
// flate level this side deflates at; inflating needs none.
func (t *transfer) compressAfter(hello transport.Message, level int) error {
	if hello.Arg&helloCompress == 0 {
		return nil
	}
	cc, err := transport.NewCompressed(t.meter, level)
	if err == nil {
		t.conn = cc
	}
	return err
}

// handshake runs the HELLO/HELLO_ACK exchange from the source side. Both
// travel raw, so a refusal reads as one whatever the HELLO asked for; the
// HELLO asks for compression, from the frame after the ack on, when
// CompressLevel is set. A resumable source (MaxRetries > 0) appends a freshly
// minted session token to the geometry payload; the destination's ack reports
// whether it will honour resumes, and sessions the peer declines run
// fail-fast.
func (t *transfer) handshake() error {
	dev := t.dev
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
	hello := transport.Message{Type: transport.MsgHello, Arg: transport.ProtocolVersion, Payload: gb}
	if t.cfg.CompressLevel != 0 {
		hello.Arg |= helloCompress
	}
	if err := t.send(hello, false); err != nil {
		return err
	}
	ack, err := t.conn.Recv()
	if err != nil {
		return fmt.Errorf("core: waiting for hello ack: %w", err)
	}
	switch ack.Type {
	case transport.MsgHelloAck:
	case transport.MsgError:
		return fmt.Errorf("core: destination refused: %s", ack.Payload)
	default:
		return fmt.Errorf("core: unexpected handshake reply %v", ack.Type)
	}
	t.sess.setResumable(t.sess.offered && ack.Arg&transport.HelloAckResume != 0)
	return t.compressAfter(hello, t.cfg.CompressLevel)
}

// acceptHandshake runs the destination side of the handshake, validating
// version and geometry against the prepared VBD and VM shell and following
// the HELLO's capability bits; one it does not know refuses the migration.
func (t *transfer) acceptHandshake() error {
	dev := t.dev
	mem := t.host.VM.Memory()
	hello, err := t.conn.Recv()
	if err != nil {
		return fmt.Errorf("core: waiting for hello: %w", err)
	}
	if hello.Type != transport.MsgHello {
		return fmt.Errorf("core: expected HELLO, got %v", hello.Type)
	}
	if version := uint32(hello.Arg); version != transport.ProtocolVersion {
		return fmt.Errorf("core: protocol version %d, want %d", version, transport.ProtocolVersion)
	}
	if caps := hello.Arg >> 32; caps&^(helloCompress>>32) != 0 {
		return fmt.Errorf("core: HELLO capability bits %#x not understood", caps)
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
	if err := t.send(transport.Message{Type: transport.MsgHelloAck, Arg: ackArg}, false); err != nil {
		return err
	}
	// Replies are acks, want-bitmaps and signatures: flate's default level
	// serves them all.
	return t.compressAfter(hello, 0)
}

// effectiveMaxExtent bounds an extent limit by what one frame may carry
// (MaxPayload, minus one byte for the marker a Compressed decorator prepends
// to incompressible payloads) of units that cost unitBytes each, and by the
// units there are, so an oversized limit can neither demand absurd staging
// buffers nor produce unencodable frames.
func effectiveMaxExtent(maxExt, unitBytes, units int) int {
	return max(min(maxExt, (transport.MaxPayload-1)/unitBytes, units), 1)
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
// travel and in what extents: the block walker below draws its extents from
// next; the page walker shows the base book the live view page by page and
// leaves out, with skip, the pages the book hands back.
//
// A cursor built with a live view leaves out every unit the tracker already
// shows dirty again at the moment the extent is cut. The tracker still owes
// such a unit, so it rides the next iteration, or the freeze bitmap / final
// page set, once instead of twice. It is also dropped from bm, the
// iteration's checkpointed owed set, so a reconnect does not resend it.
// Only preCopyLoop builds cursors with a live view; every other send
// (freeze-and-copy, post-copy, the baselines' single passes) sends all of bm.
//
// Not safe for concurrent use: a walker calls next from one goroutine.
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

// skip leaves unit n out of the pass exactly as next leaves out a re-dirtied
// unit: dropped from the checkpointed owed set, counted.
func (c *owedCursor) skip(n int) {
	c.bm.Clear(n)
	c.skipped++
}

// readPooled reads ext's blocks from dev, in one extent request, into a
// pooled buffer the caller owns (and hands to a job, or PutBufs).
func readPooled(dev blockdev.Device, ext bitmap.Extent) ([]byte, error) {
	data := transport.GetBuf(ext.Count * dev.BlockSize())
	if err := blockdev.ReadExtent(dev, ext.Start, ext.Count, data); err != nil {
		transport.PutBuf(data)
		return nil, err
	}
	return data, nil
}

// sendRead is the walker's read-and-literal step for a caller that cuts its
// own extents (post-copy's push and pull replies, a delta refusal's re-send):
// ext is read from the source read path and sent literally.
func (t *transfer) sendRead(ext bitmap.Extent, limited bool) error {
	data, err := readPooled(t.srcDev, ext)
	if err != nil {
		return err
	}
	defer transport.PutBuf(data)
	return t.send(extentMessage(ext, data), limited)
}

// extentEncoder moves one extent — ext's blocks, already read into data, a
// pooled buffer the encoder takes over and returns to the pool once done with
// it — onto the wire. Encoders stack: each claims the extents or blocks it
// can move cheaper than a literal (whole zero extents, content the
// destination holds, patches) and hands the remainder to the next one down;
// the bottom of every stack is the literal frame.
type extentEncoder func(ext bitmap.Extent, data []byte) error

// zeroEncoder returns the head stage of every chain but the paper's own: an
// extent whose bytes are all zero — or, with nil data, a hole the walker did
// not read — travels as one header-only MsgZeroExtent, and any other extent
// goes to next untouched. It keeps no order, so the chain below it keeps its
// lanes.
func (t *transfer) zeroEncoder(next extentEncoder, limited bool) extentEncoder {
	return func(ext bitmap.Extent, data []byte) error {
		if data != nil && !dedup.IsZero(data) {
			return next(ext, data)
		}
		transport.PutBuf(data)
		m := transport.Message{Type: transport.MsgZeroExtent, Arg: transport.ExtentArg(ext.Start, ext.Count)}
		if err := t.send(m, limited); err != nil {
			return err
		}
		t.dedupBlocks.Add(int64(ext.Count))
		return nil
	}
}

// sendBlocks streams the blocks cur yields and returns the count and the
// wire bytes of the pass. It builds the one encoder chain: the literal frame,
// below the probe window when Dedup or Delta is set (exact matches claimed
// before near ones, both before the literal), below the zero stage whenever
// extents, Dedup or Delta are (a whole zero extent costs one header and no
// round trip). The bare literal chain is order-free — a pass names each
// block at most once — and runs on cfg.Workers lanes; the window keeps
// cursor order, on one. With no codec, Workers and Readahead unset and one
// block per extent, the stream is the seed protocol's. With the zero stage
// and a blockdev.Allocator to read, the pass takes the allocation map once,
// after tracking is on, and sends an extent with no allocated block as a zero
// run, unread: a guest write into it later is dirty and travels again.
func (t *transfer) sendBlocks(cur *owedCursor, limited bool) (int, int64, error) {
	var encode extentEncoder = func(ext bitmap.Extent, data []byte) error {
		defer transport.PutBuf(data)
		return t.send(extentMessage(ext, data), limited)
	}
	lanes := t.cfg.Workers
	var win *window
	if t.awaitReply != nil && (t.cfg.Dedup || t.cfg.Delta) {
		win = &window{t: t, limited: limited, pending: make(map[dedup.Fingerprint]int)}
		if s, ok := t.srcDev.(blockdev.Stamped); ok && t.cfg.Dedup {
			win.memo.Dev = s
		}
		encode, lanes = win.push, 1
	}
	var alloc *bitmap.Bitmap // nil: read every extent
	if t.cfg.MaxExtentBlocks > 1 || t.cfg.Dedup || t.cfg.Delta {
		encode = t.zeroEncoder(encode, limited)
		if a, ok := t.srcDev.(blockdev.Allocator); ok {
			alloc = a.AllocatedBitmap()
		}
	}
	before := t.sentBytes.Load()
	sent, err := t.sendExtents(cur, encode, lanes, alloc)
	if win != nil {
		err = win.drain(err)
	}
	if err == nil {
		err = transport.Flush(t.conn)
	}
	return sent, t.sentBytes.Load() - before, err
}

// sendExtents is the one extent walker, a cut → read → encode pipeline whose
// stages are lane pools. The walker itself only cuts: it draws extents of at
// most MaxExtentBlocks from cur strictly in cursor order. The read stage
// fills a pooled buffer per extent (none, and nil data, for one a non-nil
// alloc holds no block of): inline on the walker when lanes <= 1, on lanes
// goroutines otherwise, so a latency-bound device is read lanes deep.
// The encode stage hands each extent and its buffer over to encode: with
// cfg.Readahead 0 on the goroutine that read it, with Readahead > 0 on lanes
// of its own behind a queue that deep, so the next extents' blocks are read
// while the current one is on the wire. With lanes <= 1 both stages keep
// cursor order (one lane is a FIFO), so encode sees the same extents in the
// same order whatever the depth and the frame sequence — and the golden wire
// traces — do not depend on it; with more, encode must be safe for concurrent
// use, as the literal encoder is.
func (t *transfer) sendExtents(cur *owedCursor, encode extentEncoder, lanes int, alloc *bitmap.Bitmap) (int, error) {
	dev := t.srcDev
	var sent atomic.Int64
	run := func(ext bitmap.Extent, data []byte) error {
		err := encode(ext, data)
		if err == nil {
			sent.Add(int64(ext.Count))
		}
		return err
	}
	var encoders *lanePool // nil: whoever read an extent encodes it
	if depth := t.cfg.Readahead; depth > 0 {
		encoders = newLanePool(lanes, depth)
	}
	defer encoders.close()
	read := func(ext bitmap.Extent, _ []byte) error {
		var data []byte
		if alloc == nil || alloc.AnyIn(ext.Start, ext.End()) {
			var err error
			if data, err = readPooled(dev, ext); err != nil {
				return err
			}
		}
		if encoders == nil {
			return run(ext, data)
		}
		return encoders.do(job{ext: ext, data: data, run: run, takes: true})
	}
	readers := newLanePool(lanes, 0)
	defer readers.close()
	maxExt := effectiveMaxExtent(t.cfg.MaxExtentBlocks, t.dev.BlockSize(), t.dev.NumBlocks())
	var err error
	for err == nil {
		ext := cur.next(maxExt)
		if ext.Count == 0 {
			break
		}
		err = readers.do(job{ext: ext, run: read})
	}
	// The pass is over, or failed: the barrier, stage by stage, and the first
	// error.
	for _, p := range []*lanePool{readers, encoders} {
		if perr := p.drain(); err == nil {
			err = perr
		}
	}
	return int(sent.Load()), err
}

// sendPages streams the pages of cur's set in batches. Each page the base
// book frames — literal, or a delta against the bytes last sent when the book
// has them and the delta pays (vm.BaseBook states the rule, including which
// re-dirtied pages still travel) — is copied into the pass's batch at once,
// and the batch travels as one MsgMemPages frame, ended by the book's base
// check, when it holds the page limit (MaxExtentBlocks, bounded like an
// extent) or the pass ends. At the default limit of one every page is the
// Xen-style page frame, a MsgMemPage or a word-form MsgMemPageDelta, so the
// stream is the seed's frame for frame. Pre-copy and the freeze share this
// one path.
func (t *transfer) sendPages(cur *owedCursor, limited bool) (int, int64, error) {
	mem := t.host.VM.Memory()
	entryBytes := mem.PageSize() + 2*binary.MaxVarintLen64
	limit := effectiveMaxExtent(t.cfg.MaxExtentBlocks, entryBytes, mem.NumPages())
	batch := transport.GetBuf(limit * entryBytes)[:0]
	defer transport.PutBuf(batch)
	unit := vm.ByteUnit
	if limit == 1 {
		unit = vm.WordUnit
	}
	var sent, count, first, prev int
	var bytes int64
	var body []byte // the last page's payload: the frame's at the limit of one
	var delta bool
	flush := func() error {
		m := transport.Message{Type: transport.MsgMemPages, Arg: transport.ExtentArg(first, count), Payload: t.pages.AppendBaseCheck(batch)}
		if limit == 1 {
			m = transport.Message{Type: transport.MsgMemPage, Arg: uint64(first), Payload: body}
			if delta {
				m.Type = transport.MsgMemPageDelta
			}
		}
		if err := t.send(m, limited); err != nil {
			return err
		}
		sent, bytes, count, batch = sent+count, bytes+int64(m.FrameSize()), 0, batch[:0]
		return nil
	}
	for n := cur.bm.NextSet(0); n >= 0; n = cur.bm.NextSet(n + 1) {
		payload, d, err := t.pages.Frame(n, cur.live, unit)
		if err != nil {
			return sent, bytes, err
		}
		if payload == nil {
			cur.skip(n)
			continue
		}
		gap := n - prev - 1
		if count == 0 {
			first, gap = n, 0
		}
		batch = transport.AppendMemPage(batch, gap, payload)
		body, delta, prev = batch[len(batch)-len(payload):], d, n
		if count++; count == limit {
			if err := flush(); err != nil {
				return sent, bytes, err
			}
		}
	}
	if count > 0 {
		if err := flush(); err != nil {
			return sent, bytes, err
		}
	}
	return sent, bytes, transport.Flush(t.conn)
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
		t.srcDev = t.dev
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
	open               func() // runs once, ahead of iteration 1 of a loop that is not resumed
	send               func(cur *owedCursor) (int, int64, error)
	live               bitmap.View // the tracker swapDirty drains: what a pass may skip
	dirtyCount         func() int
	swapDirty          func() *bitmap.Bitmap
	record             func(metrics.Iteration)
}

// IterationStat summarizes one completed pre-copy iteration for the stop rule
// and the progress events.
type IterationStat struct {
	Phase     string  // PhaseDiskPreCopy or PhaseMemPreCopy
	Iteration int     // 1-based index of the iteration that just finished
	Sent      int     // units (blocks or pages) transferred
	Skipped   int     // units of the iteration's set left out as already dirty again (counted in Dirty, not in Sent)
	SentBytes int64   // wire bytes of the iteration's frames
	Dirty     float64 // dirty units when the iteration ended: an engine count, exact, or a simulator model's expectation
	PrevDirty float64 // dirty count after the previous iteration (or the initial set size)

	Threshold     int // dirty threshold for this phase (a Default*DirtyThreshold)
	MaxIterations int // iteration budget for this phase (a DefaultMax*Iters)
}

// ContinuePreCopy is the paper's pre-copy stop rule (§IV-A-1): another
// iteration runs unless the dirty set is down to the threshold, the iteration
// budget is spent, or the dirty rate has caught up with the transfer rate
// (the set stopped shrinking). Stopping hands the remaining dirty set to the
// next phase: freeze-and-copy for disk, suspend for memory.
func ContinuePreCopy(st IterationStat) bool {
	return st.Dirty > float64(st.Threshold) && st.Iteration < st.MaxIterations &&
		(st.Iteration <= 1 || st.Dirty < st.PrevDirty)
}

// preCopyLoop is the shared iteration scaffolding: iteration 1 sends the
// initial set, iteration k sends what was dirtied during k-1, and
// ContinuePreCopy decides when to stop. The remaining dirty set stays in the
// tracker for the next phase.
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
	} else if sp.open != nil {
		sp.open()
	}
	prev := toSend.Count()
	for iter := startIter; ; iter++ {
		if t.ckpt != nil {
			t.ckpt(sp.phase, iter, toSend)
		}
		iterStart := time.Now()
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
		iterDur := time.Since(iterStart)
		dirtyNow := sp.dirtyCount()
		sp.record(metrics.Iteration{
			Index: iter, Units: sent, Skipped: cur.skipped, Bytes: bytes, Duration: iterDur, DirtyEnd: dirtyNow,
		})
		st := IterationStat{
			Phase: sp.phase, Iteration: iter, Sent: sent, Skipped: cur.skipped, SentBytes: bytes,
			Dirty: float64(dirtyNow), PrevDirty: float64(prev), Threshold: sp.threshold, MaxIterations: sp.maxIter,
		}
		t.ev.iterationEnd(st)
		more := ContinuePreCopy(st)
		if t.stopRule != nil {
			more = t.stopRule(st)
		}
		if !more {
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
func (t *transfer) diskPreCopy(initial *bitmap.Bitmap) error {
	t.host.Backend.StartTracking()
	if initial == nil {
		initial = bitmap.NewAllSet(t.host.Backend.Device().NumBlocks())
	}
	return t.preCopyLoop(preCopySpec{
		phase:    PhaseDiskPreCopy,
		startMsg: transport.MsgIterStart, endMsg: transport.MsgIterEnd,
		threshold: DefaultDiskDirtyThreshold, maxIter: DefaultMaxDiskIters,
		send: func(cur *owedCursor) (int, int64, error) {
			restore := t.snapshotForReads()
			defer restore()
			return t.sendBlocks(cur, true)
		},
		live:       t.host.Backend.DirtyView(),
		dirtyCount: t.host.Backend.DirtyCount,
		swapDirty:  t.host.Backend.SwapDirty,
		record: func(it metrics.Iteration) {
			t.rep.DiskIterations = append(t.rep.DiskIterations, it)
		},
	}, initial)
}

// memPreCopy runs the Xen-style iterative memory pre-copy: iteration 1 sends
// every page, later iterations send pages dirtied during the previous one.
// Dirty logging has been on since the run began, so what it holds now is the
// working set the guest showed during everything sent before memory: it, and
// every later iteration's set, tell the base book which pages are worth a
// base. Memory goes last in every scheme that pre-copies, so its end is the
// end of pre-copy.
func (t *transfer) memPreCopy() error {
	mem := t.host.VM.Memory()
	swap := func() *bitmap.Bitmap {
		set := mem.SwapDirty()
		if !t.resendAll {
			t.pages.SawDirty(set)
		}
		return set
	}
	err := t.preCopyLoop(preCopySpec{
		phase:    PhaseMemPreCopy,
		startMsg: transport.MsgMemIterStart, endMsg: transport.MsgMemIterEnd,
		threshold: DefaultMemDirtyThreshold, maxIter: DefaultMaxMemIters,
		// Iteration 1 owes every page anyway, so what logging holds is only
		// evidence; a resumed pass owes its own set and must keep the rest.
		open: func() { swap() },
		send: func(cur *owedCursor) (int, int64, error) {
			return t.sendPages(cur, true)
		},
		live:       mem.DirtyView(),
		dirtyCount: mem.DirtyCount,
		swapDirty:  swap,
		record: func(it metrics.Iteration) {
			it.Deltas = t.pages.TakeDeltas()
			t.rep.MemIterations = append(t.rep.MemIterations, it)
		},
	}, bitmap.NewAllSet(mem.NumPages()))
	t.rep.PreCopyTime = time.Since(t.start)
	return err
}

// --- Destination-side frame application ---

// splitExtent unpacks an ExtentArg read off the wire and bounds it by dev.
func splitExtent(arg uint64, dev blockdev.Device) (bitmap.Extent, error) {
	start, count := transport.ExtentSplit(arg)
	if count < 1 || start < 0 || start+count > dev.NumBlocks() {
		return bitmap.Extent{}, fmt.Errorf("core: extent [%d,+%d) outside %d-block VBD", start, count, dev.NumBlocks())
	}
	return bitmap.Extent{Start: start, Count: count}, nil
}

// dataExtent is the one validator of data frames: it returns the blocks a
// MsgBlockData (a one-block extent), MsgExtent or MsgZeroExtent frame
// covers, or an error when they fall outside dev or the payload is not
// exactly their size — none at all, for a zero run.
func dataExtent(m transport.Message, dev blockdev.Device) (bitmap.Extent, error) {
	var ext bitmap.Extent
	switch m.Type {
	case transport.MsgBlockData:
		if m.Arg >= uint64(dev.NumBlocks()) {
			return ext, fmt.Errorf("core: block %d outside %d-block VBD", m.Arg, dev.NumBlocks())
		}
		ext = bitmap.Extent{Start: int(m.Arg), Count: 1}
	case transport.MsgExtent, transport.MsgZeroExtent:
		var err error
		if ext, err = splitExtent(m.Arg, dev); err != nil {
			return ext, err
		}
	default:
		return ext, fmt.Errorf("core: %v is not a data frame", m.Type)
	}
	want := ext.Count * dev.BlockSize()
	if m.Type == transport.MsgZeroExtent {
		want = 0
	}
	if len(m.Payload) != want {
		return bitmap.Extent{}, fmt.Errorf("core: extent [%d,+%d) payload %d bytes, want %d", ext.Start, ext.Count, len(m.Payload), want)
	}
	return ext, nil
}

// applyData is the one applier of data frames: it validates m
// against the VBD and hands the extent and its payload to the pool as a job,
// which releases the payload (appliers own their payloads, the Recv transfer
// contract) once sink has run — inline on a nil pool, else on a lane, no
// earlier than the drain barrier any later control frame waits on. sink is
// bound once per handler group; a zero run's job carries no data.
// The validated extent is returned for progress accounting.
func (t *transfer) applyData(m transport.Message, pool *lanePool, sink func(bitmap.Extent, []byte) error) (bitmap.Extent, error) {
	ext, err := dataExtent(m, t.dev)
	if err != nil {
		transport.PutBuf(m.Payload) // rejected before it became a job
		return ext, err
	}
	return ext, pool.do(job{ext: ext, data: m.Payload, run: sink})
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
// `until` type arrives; a handler listed for `until` itself runs on that
// frame before the loop returns. MsgError frames abort with the carried
// cause; unlisted types are protocol errors. The receive side of the byte
// heartbeat is fed here. Receives ride destRecv, so a resumable destination
// survives connection loss mid-loop: duplicate frames the reconnecting source
// re-sends are applied idempotently by the handlers.
//
// Buffer ownership: non-data frames are consumed synchronously by their
// handlers (every handler parses or copies what it keeps), so their pooled
// payloads are released here. Data frames become jobs, and the lane pool
// releases a job's payload once it has run — possibly later, on a lane.
func (t *transfer) recvLoop(until transport.MsgType, handlers frameHandlers) error {
	for {
		m, err := t.destRecv()
		if err != nil {
			return fmt.Errorf("core: receive: %w", err)
		}
		t.noteWire()
		if m.Type == transport.MsgError {
			return fmt.Errorf("core: source error: %s", m.Payload)
		}
		fn, ok := handlers[m.Type]
		if !ok && m.Type != until {
			return fmt.Errorf("core: unexpected message %v", m.Type)
		}
		if fn != nil {
			if err := fn(m); err != nil {
				return err
			}
		}
		if !transport.IsDataFrame(m.Type) && m.Type != transport.MsgDelta {
			// MsgDelta is the one non-data frame whose handler retains the
			// payload (the forward-and-replay queue); its replay loop
			// releases the buffers once applied.
			m.Release()
		}
		if m.Type == until {
			return nil
		}
	}
}
