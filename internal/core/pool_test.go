package core

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/dedup"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
)

// TestPoisonedPoolMigrations runs full migrations with the buffer pool's
// use-after-release poison mode armed: every released payload is scribbled
// over before it can be recycled, so any path that touches a buffer after
// handing it back — applier, dedup observer, replay queue, compression
// stage — corrupts data deterministically and fails the convergence check.
// The matrix covers every composition the release discipline threads
// through: readahead prefetch, striped multi-stream with scatter workers,
// negotiated compression, content dedup, and the delta codec. The stale rows
// start the destination from an older copy of the image (half the written
// blocks identical, half with their first 256 bytes different) that its
// fingerprint index has scanned, so the borrowed buffers carry content that
// matters: a dedup stage read after the next advert released it, a signature
// view read after its reply was released, or a rebuilt extent released before
// its blocks were written lands poison on the disk. Run with -race, the
// striped rows double as the concurrent send/recv pool-recycling race test.
func TestPoisonedPoolMigrations(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		stale bool
	}{
		{name: "per-block"},
		{name: "readahead", cfg: Config{MaxExtentBlocks: 16, Readahead: 4}},
		{name: "striped-workers", cfg: Config{Streams: 4, MaxExtentBlocks: 16, Workers: 4}},
		{name: "workers-readahead", cfg: Config{MaxExtentBlocks: 16, Workers: 4, Readahead: 4}},
		{name: "striped-workers-readahead", cfg: Config{Streams: 4, MaxExtentBlocks: 16, Workers: 4, Readahead: 4}},
		{name: "compressed", cfg: Config{MaxExtentBlocks: 16, CompressLevel: -1}},
		{name: "compressed-workers", cfg: Config{MaxExtentBlocks: 16, CompressLevel: -1, Workers: 4}},
		{name: "dedup", cfg: Config{Dedup: true, MaxExtentBlocks: 16}},
		{name: "dedup-striped", cfg: Config{Dedup: true, MaxExtentBlocks: 16, Streams: 4}},
		// Four destination apply lanes record into the dedup session the
		// receive loop opens at the first advert.
		{name: "dedup-workers", cfg: Config{Dedup: true, MaxExtentBlocks: 16, Workers: 4}},
		{name: "dedup-stale", cfg: Config{Dedup: true, MaxExtentBlocks: 16}, stale: true},
		{name: "delta", cfg: Config{Delta: true, MaxExtentBlocks: 16}, stale: true},
		{name: "dedup+delta", cfg: Config{Dedup: true, Delta: true, MaxExtentBlocks: 16}, stale: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, worldSpec{streams: tc.cfg.Streams})
			cfg := tc.cfg
			if tc.stale {
				staleDestination(t, w.srcDisk, w.dstDisk, 2)
				if cfg.Dedup {
					cfg.DedupIndex, cfg.DedupName = dedup.NewIndex(blockdev.BlockSize), "retained"
					if err := cfg.DedupIndex.RegisterSource(cfg.DedupName, w.dstDisk); err != nil {
						t.Fatal(err)
					}
					if _, err := cfg.DedupIndex.ScanSource(cfg.DedupName); err != nil {
						t.Fatal(err)
					}
				}
			}
			rep, _ := w.tpm(cfg, cfg, nil)
			if tc.stale && cfg.Dedup && rep.DedupBlocks <= testBlocks*2/3 {
				t.Errorf("%d blocks by reference: no staged content was referenced, only zeros", rep.DedupBlocks)
			}
			if tc.stale && cfg.Delta && rep.DeltaBlocks == 0 {
				t.Error("no block travelled as a patch: the delta buffers were never exercised")
			}
		})
	}
}

// staleDestination starts dst as an older copy of the test image on src:
// every written block is there, and every rewriteEvery-th of them differs
// from the source in its first 256 bytes.
func staleDestination(t *testing.T, src, dst *blockdev.MemDisk, rewriteEvery int) {
	t.Helper()
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < testBlocks; n += 3 { // the test image has every third block written
		if err := src.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if n/3%rewriteEvery == 0 {
			for i := 0; i < 256; i++ {
				buf[i] ^= 0x5a
			}
		}
		if err := dst.WriteBlock(n, buf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWireTraceReadaheadEquivalence proves readahead is a pure pipelining
// change on every encoder chain: with identical configs otherwise, the
// prefetching walker emits a frame-for-frame identical dialogue (types, args,
// payload hashes, order, both directions) to the inline one — for the bare
// literal chain and with the dedup and delta round-trip encoders stacked on
// it, which prefetch through the same walker. On those order-bound chains
// Workers is one more input that changes nothing: they run one lane.
func TestWireTraceReadaheadEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		workers int      // a second lane count the trace must not depend on
		frames  []string // frame types the chain must actually have produced
	}{
		{"literal", Config{}, 1, []string{"EXTENT"}},
		{"dedup", Config{Dedup: true}, 4, []string{"HASH_ADVERT", "HASH_WANT"}},
		{"delta", Config{Delta: true}, 4, []string{"DELTA_PATCH"}},
		{"dedup+delta", Config{Dedup: true, Delta: true}, 4, []string{"HASH_ADVERT", "HASH_WANT", "DELTA_PATCH"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(readahead, workers int) []string {
				w := traced(t)
				// The destination starts from a stale copy — every source
				// block with its first 256 bytes rewritten — so the delta
				// encoder has near matches to patch, not just zero runs.
				staleDestination(t, w.srcDisk, w.dstDisk, 1)
				cfg := tc.cfg
				cfg.MaxExtentBlocks, cfg.Readahead, cfg.Workers = 8, readahead, workers
				w.tpm(cfg, cfg, nil)
				return append(w.traceSrc.trace(), w.traceDst.trace()...)
			}
			seq := run(0, 1)
			ra := run(4, tc.workers)
			for _, typ := range tc.frames {
				if !strings.Contains(strings.Join(seq, "\n"), typ+" ") {
					t.Fatalf("no %s frame in the trace: the chain under test never ran", typ)
				}
			}
			if len(seq) != len(ra) {
				t.Fatalf("frame count diverges: sequential %d, readahead %d", len(seq), len(ra))
			}
			for i := range seq {
				if seq[i] != ra[i] {
					t.Fatalf("frame %d diverges:\n  sequential: %s\n  readahead:  %s", i, seq[i], ra[i])
				}
			}
		})
	}
}

// heldConn is a link whose sends block until release is closed and then
// vanish. Nothing is ever received on it.
type heldConn struct{ release chan struct{} }

func (c heldConn) Send(transport.Message) error { <-c.release; return nil }
func (c heldConn) Recv() (transport.Message, error) {
	<-c.release
	return transport.Message{}, errors.New("heldConn: nothing to receive")
}
func (c heldConn) Close() error { return nil }

// readCounter counts block reads and closes reached at the want-th.
type readCounter struct {
	blockdev.Device
	reads   atomic.Int64
	want    int64
	reached chan struct{}
}

func (d *readCounter) ReadBlock(n int, buf []byte) error {
	if d.reads.Add(1) == d.want {
		close(d.reached)
	}
	return d.Device.ReadBlock(n, buf)
}

// TestReadaheadComposesWithWorkers: the read stage runs Readahead extents
// ahead of the encode stage whatever the lane count. With every send held
// shut a two-lane literal pass holds an extent in each encode lane and must
// then still read its Readahead depth beyond them, into the encode queue.
// (The old worker pool read inside its lanes and ignored Readahead: it
// stopped at two reads.)
func TestReadaheadComposesWithWorkers(t *testing.T) {
	const workers, readahead = 2, 4
	dev := &readCounter{
		Device: blockdev.NewMemDisk(testBlocks, blockdev.BlockSize),
		want:   workers + readahead, reached: make(chan struct{}),
	}
	conn := heldConn{release: make(chan struct{})}
	cfg := Config{Workers: workers, Readahead: readahead}.withDefaults() // one block per extent
	tr := newDiskTransfer(cfg, dev, conn, "test", "source")
	type result struct {
		sent int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		sent, _, err := tr.sendBlocks(allOf(bitmap.NewAllSet(testBlocks)), false)
		done <- result{sent, err}
	}()
	select {
	case <-dev.reached:
	case <-time.After(5 * time.Second):
		t.Errorf("device saw %d reads with every send held, want %d: Readahead %d is not honoured beside %d lanes",
			dev.reads.Load(), dev.want, readahead, workers)
	}
	close(conn.release)
	if res := <-done; res.err != nil || res.sent != testBlocks {
		t.Fatalf("pass sent %d of %d blocks, err %v", res.sent, testBlocks, res.err)
	}
}

// nullConn is a link that swallows every send.
type nullConn struct{ heldConn }

func (nullConn) Send(transport.Message) error { return nil }

// rendezvousDisk holds every ReadBlock until want of them are in flight at
// once (or giveUp fires), then lets all reads through.
type rendezvousDisk struct {
	blockdev.Device
	inFlight atomic.Int64
	want     int64
	once     sync.Once
	met      chan struct{}
	giveUp   chan struct{}
}

func (d *rendezvousDisk) ReadBlock(n int, buf []byte) error {
	if d.inFlight.Add(1) >= d.want {
		d.once.Do(func() { close(d.met) })
	}
	defer d.inFlight.Add(-1)
	select {
	case <-d.met:
	case <-d.giveUp:
	}
	return d.Device.ReadBlock(n, buf)
}

// TestWorkersParallelizeReads: on an order-free chain the read stage is
// Workers wide with or without Readahead, so a latency-bound device (a file,
// a network volume) is read that many extents at a time. A single reader,
// inline or prefetching, never gets four reads in flight.
func TestWorkersParallelizeReads(t *testing.T) {
	for _, readahead := range []int{0, 4} {
		dev := &rendezvousDisk{Device: blockdev.NewMemDisk(testBlocks, blockdev.BlockSize), want: 4, met: make(chan struct{}), giveUp: make(chan struct{})}
		timer := time.AfterFunc(5*time.Second, func() { close(dev.giveUp) })
		cfg := Config{Workers: 4, Readahead: readahead}.withDefaults()
		tr := newDiskTransfer(cfg, dev, nullConn{}, "test", "source")
		sent, _, err := tr.sendBlocks(allOf(bitmap.NewAllSet(testBlocks)), false)
		timer.Stop()
		if err != nil || sent != testBlocks {
			t.Fatalf("readahead %d: pass sent %d of %d blocks, err %v", readahead, sent, testBlocks, err)
		}
		select {
		case <-dev.met:
		default:
			t.Fatalf("readahead %d: never 4 device reads in flight with Workers 4", readahead)
		}
	}
}

// TestSendExtentsFirstErrorNoLeak: with lanes and readahead both running, an
// encoder that fails on its k-th extent ends the pass with that error, every
// goroutine the walker started is gone when it returns, and — poison armed —
// no lane ever saw a buffer that had already been handed back.
func TestSendExtentsFirstErrorNoLeak(t *testing.T) {
	const failAt = 37
	errEncode := errors.New("encoder refused the extent")
	w := newWorld(t) // for its pattern-filled disk
	cfg := Config{Workers: 4, Readahead: 4, MaxExtentBlocks: 8}.withDefaults()
	tr := newDiskTransfer(cfg, w.srcDisk, heldConn{}, "test", "source")
	var calls atomic.Int64
	var mu sync.Mutex
	var torn []int
	bs := w.srcDisk.BlockSize()
	encode := func(ext bitmap.Extent, data []byte) error {
		defer transport.PutBuf(data) // an encoder takes the buffer over
		if calls.Add(1) == failAt {
			return errEncode
		}
		want := make([]byte, bs)
		for k := 0; k < ext.Count; k++ {
			if err := w.srcDisk.ReadBlock(ext.Start+k, want); err != nil {
				return err
			}
			if !bytes.Equal(data[k*bs:(k+1)*bs], want) {
				mu.Lock()
				torn = append(torn, ext.Start+k)
				mu.Unlock()
			}
		}
		return nil
	}
	before := runtime.NumGoroutine()
	sent, err := tr.sendExtents(allOf(bitmap.NewAllSet(testBlocks)), encode, cfg.Workers, nil)
	if !errors.Is(err, errEncode) {
		t.Fatalf("pass returned %v, want the encoder's error", err)
	}
	if sent >= testBlocks {
		t.Fatalf("pass counted %d blocks sent although extent %d failed", sent, failAt)
	}
	if len(torn) != 0 {
		t.Fatalf("lanes encoded released buffers: blocks %v differ from the device", torn)
	}
	// The last goroutine closes its channel a few instructions before it is
	// gone: give the scheduler a moment, not the leak a pass.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before the pass, %d after it failed", before, n)
	}
}

// failNthWrite fails exactly the nth WriteBlock.
type failNthWrite struct {
	blockdev.Device
	writes atomic.Int64
	nth    int64
}

var errWrite = errors.New("write failed")

func (d *failNthWrite) WriteBlock(n int, data []byte) error {
	if d.writes.Add(1) == d.nth {
		return errWrite
	}
	return d.Device.WriteBlock(n, data)
}

// handlerDest is a destination endpoint with just enough behind it to drive
// its data and page handlers frame by frame.
func handlerDest(dev blockdev.Device, workers int) *destRun {
	shell := vm.NewDestination(vm.New("guest", testDomain, testPages, 0))
	return &destRun{transfer: &transfer{dev: dev, host: Host{VM: shell}}, lanes: newLanePool(workers, 0)}
}

// TestFailedApplyReleasesPayload pins the job ownership rule on the failure
// paths: a payload handed to a data or page handler goes back to the buffer
// pool whether its job ran, failed, or was refused because an earlier one had
// failed. Poison mode makes a release visible: the bytes turn to 0xDB.
func TestFailedApplyReleasesPayload(t *testing.T) {
	const frames, failAt = 64, 9
	for _, workers := range []int{1, 4} {
		dev := &failNthWrite{Device: blockdev.NewMemDisk(frames, blockdev.BlockSize), nth: failAt}
		d := handlerDest(dev, workers)
		data := d.diskHandlers()[transport.MsgBlockData]
		pages := d.vmHandlers()
		var payloads [][]byte
		var firstErr error
		feed := func(h func(transport.Message) error, m transport.Message) {
			for i := range m.Payload {
				m.Payload[i] = 0x11
			}
			payloads = append(payloads, m.Payload)
			if err := h(m); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		for n := 0; n < frames; n++ {
			feed(data, transport.Message{Type: transport.MsgBlockData, Arg: uint64(n), Payload: transport.GetBuf(blockdev.BlockSize)})
		}
		// Let the device's failure land first: on several lanes the page
		// job below could otherwise run, and fail, before the ninth write.
		if err := d.lanes.drain(); err != nil && firstErr == nil {
			firstErr = err
		}
		// A delta for a page this side never received cannot apply.
		feed(pages[transport.MsgMemPageDelta], transport.Message{Type: transport.MsgMemPageDelta, Arg: 3, Payload: transport.GetBuf(64)})
		// A frame the validator rejects never becomes a job; whoever rejected
		// it releases it.
		bad := transport.Message{Type: transport.MsgBlockData, Arg: frames + 1, Payload: transport.GetBuf(blockdev.BlockSize)}
		bad.Payload[0], bad.Payload[blockdev.BlockSize-1] = 0x11, 0x11
		payloads = append(payloads, bad.Payload)
		if err := data(bad); err == nil || errors.Is(err, errWrite) {
			t.Fatalf("workers %d: block outside the VBD: error %v, want the validator's", workers, err)
		}
		if err := d.lanes.drain(); err != nil && firstErr == nil {
			firstErr = err
		}
		d.lanes.close()
		if !errors.Is(firstErr, errWrite) {
			t.Fatalf("workers %d: first error %v, want the device's", workers, firstErr)
		}
		for i, p := range payloads {
			if p[0] != 0xDB || p[len(p)-1] != 0xDB {
				t.Fatalf("workers %d: payload of frame %d was never released", workers, i)
			}
		}
	}
}

// TestApplyAllocatesNothingPerFrame: on the default inline path a received
// data frame or page frame becomes a job value, not a closure — the handlers
// allocate nothing per frame.
func TestApplyAllocatesNothingPerFrame(t *testing.T) {
	d := handlerDest(blockdev.NewMemDisk(8, blockdev.BlockSize), 1)
	data := d.diskHandlers()[transport.MsgExtent]
	page := d.vmHandlers()[transport.MsgMemPage]
	// Payloads of no pool size class: PutBuf drops them, so the count is the
	// handlers' own and the buffers can be fed again.
	ext := make([]byte, 4*blockdev.BlockSize, 4*blockdev.BlockSize+1)
	pg := make([]byte, vm.PageSize, vm.PageSize+1)
	allocs := testing.AllocsPerRun(200, func() {
		if err := data(transport.Message{Type: transport.MsgExtent, Arg: transport.ExtentArg(2, 4), Payload: ext}); err != nil {
			t.Fatal(err)
		}
		if err := page(transport.Message{Type: transport.MsgMemPage, Arg: 5, Payload: pg}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("data + page handlers allocate %.0f per frame pair, want 0", allocs)
	}
}
