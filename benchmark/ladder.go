package main

import (
	"fmt"
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/blockdev/bcache"
	"bbmig/internal/dedup"
	"bbmig/internal/delta"
	"bbmig/internal/transport"
)

// The ex-situ ladder: each layer's public functions run alone over the
// workload's own data, so an in-situ number from the traced migrations has
// a stand-alone cost to be compared with. A rung a workload does not
// exercise is not run and reports 0 — that is the "only on" prediction.

// nsPer runs fn (which performs ops operations) three times and returns the
// lowest ns per operation; interference only adds time.
func nsPer(ops int, fn func()) float64 {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < 3; r++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(ops)
}

func ladder(sp *spec, fx *fixture, out map[string]float64) error {
	ladderBitmap(sp, fx, out)
	if err := ladderFrames(out); err != nil {
		return fmt.Errorf("transport ladder: %w", err)
	}
	if sp.live {
		if err := ladderCache(fx, out); err != nil {
			return fmt.Errorf("bcache ladder: %w", err)
		}
		ladderBackend(fx, out)
	}
	if sp.cfg.CompressLevel != 0 {
		if err := ladderCompress(sp, fx, out); err != nil {
			return fmt.Errorf("compress ladder: %w", err)
		}
	}
	if sp.cfg.Streams > 1 {
		if err := ladderStripe(sp, out); err != nil {
			return fmt.Errorf("stripe ladder: %w", err)
		}
	}
	if sp.cfg.Dedup {
		if err := ladderDedup(fx, out); err != nil {
			return fmt.Errorf("dedup ladder: %w", err)
		}
	}
	if sp.cfg.Delta {
		if err := ladderDelta(sp, fx, out); err != nil {
			return fmt.Errorf("delta ladder: %w", err)
		}
	}
	return nil
}

// ladderBitmap times the bitmap operations a migration performs on the
// workload's own first-iteration bitmap: the extent scan that drives every
// send loop, and the clone, marshal and swap that sit in or near the freeze
// window.
func ladderBitmap(sp *spec, fx *fixture, out map[string]float64) {
	bm := fx.initial
	if bm == nil {
		bm = bitmap.NewAllSet(fx.blocks)
	}
	maxExt := max(1, sp.cfg.MaxExtentBlocks)
	extents := 0
	scan := func() {
		extents = 0
		for pos := 0; ; {
			e := bm.NextExtent(pos, maxExt)
			if e.Count == 0 {
				return
			}
			extents++
			pos = e.End()
		}
	}
	scan()
	out["bitmap.extents"] = float64(extents)
	out["bitmap.scan_ns_per_extent"] = nsPer(extents, scan)
	out["bitmap.clone_us"] = nsPer(1, func() { _ = bm.Clone() }) / 1e3
	var raw []byte
	out["bitmap.marshal_us"] = nsPer(1, func() { raw, _ = bm.MarshalBinary() }) / 1e3 // a Bitmap always marshals
	out["bitmap.marshal_bytes"] = float64(len(raw))

	// The write-tracking side: one Set per guest write, one SwapOut per
	// iteration, on a tracker the size of the disk.
	at := bitmap.NewAtomic(fx.blocks)
	const sets = 1 << 16
	out["bitmap.set_ns"] = nsPer(sets, func() {
		for i := 0; i < sets; i++ {
			at.Set((i * 4999) % fx.blocks)
		}
	})
	out["bitmap.swap_us"] = nsPer(1, func() { _ = at.SwapOut() }) / 1e3
}

// loopbackPair returns two connected transport.Conns over loopback TCP.
func loopbackPair(streams int) (a, b transport.Conn, err error) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer l.Close()
	type accepted struct {
		c   transport.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		var c transport.Conn
		var err error
		if streams > 1 {
			c, err = transport.AcceptStriped(l, nil)
		} else {
			c, err = transport.Accept(l)
		}
		ch <- accepted{c, err}
	}()
	if streams > 1 {
		a, err = transport.DialStriped(l.Addr().String(), streams, nil)
	} else {
		a, err = transport.Dial(l.Addr().String())
	}
	if err != nil {
		l.Close()
		<-ch
		return nil, nil, err
	}
	acc := <-ch
	if acc.err != nil {
		a.Close()
		return nil, nil, acc.err
	}
	return a, acc.c, nil
}

// pump starts a receiver that releases every frame it gets and reports each
// on got; it exits when the connection closes, closing got.
func pump(c transport.Conn) <-chan struct{} {
	got := make(chan struct{}, 4096) // above the largest batch a rung sends before it starts draining
	go func() {
		defer close(got)
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			m.Release()
			got <- struct{}{}
		}
	}()
	return got
}

// timeFrames sends n frames of payload over a and waits until the receiver
// behind got has taken them all.
func timeFrames(a transport.Conn, got <-chan struct{}, typ transport.MsgType, arg uint64, payload []byte, n int) (float64, error) {
	var fail error
	ns := nsPer(n, func() {
		for i := 0; i < n && fail == nil; i++ {
			fail = a.Send(transport.Message{Type: typ, Arg: arg, Payload: payload})
		}
		for i := 0; i < n && fail == nil; i++ {
			if _, ok := <-got; !ok {
				fail = fmt.Errorf("receiver stopped early")
			}
		}
	})
	return ns, fail
}

// ladderFrames times the framing layer alone over loopback TCP: the 4 KiB
// frame of the paper's protocol and the 256 KiB extent frame, send to
// receive, plus the allocations one frame costs both ends.
func ladderFrames(out map[string]float64) error {
	a, b, err := loopbackPair(1)
	if err != nil {
		return err
	}
	got := pump(b)
	defer func() {
		a.Close()
		b.Close()
		for range got {
		}
	}()
	block := make([]byte, blockdev.BlockSize)
	extent := make([]byte, 64*blockdev.BlockSize)
	if out["transport.frame_ns_4k"], err = timeFrames(a, got, transport.MsgBlockData, 1, block, 2000); err != nil {
		return err
	}
	if out["transport.frame_ns_256k"], err = timeFrames(a, got, transport.MsgExtent, transport.ExtentArg(0, 64), extent, 100); err != nil {
		return err
	}
	out["transport.allocs_per_frame"] = testing.AllocsPerRun(200, func() {
		if a.Send(transport.Message{Type: transport.MsgBlockData, Arg: 1, Payload: block}) == nil {
			<-got
		}
	})
	return nil
}

// ladderCache reads the whole image through a block cache sized like the
// workload's, live and through a snapshot (the 0.55x snapshot-scan anomaly).
func ladderCache(fx *fixture, out map[string]float64) error {
	cache, ok := fx.source().(*bcache.Cache)
	if !ok {
		return fmt.Errorf("live source is not a bcache volume")
	}
	buf := make([]byte, blockdev.BlockSize)
	var fail error
	scan := func(dev blockdev.Device) func() {
		return func() {
			for n := 0; n < fx.blocks && fail == nil; n++ {
				fail = dev.ReadBlock(n, buf)
			}
		}
	}
	out["bcache.live_read_ns_per_block"] = nsPer(fx.blocks, scan(cache))
	snap := cache.Snapshot()
	out["bcache.snapshot_read_ns_per_block"] = nsPer(fx.blocks, scan(snap))
	snap.Release()
	return fail
}

// ladderBackend times the write-intercept with tracking off and on — the
// paper's "< 1 % overhead" claim (Table III) on this machine.
func ladderBackend(fx *fixture, out map[string]float64) {
	buf := make([]byte, blockdev.BlockSize)
	for _, tracked := range []bool{false, true} {
		be := blkback.NewBackend(blockdev.NewMemDisk(fx.blocks, blockdev.BlockSize), 1)
		name := "blkback.submit_ns_tracking_off"
		if tracked {
			be.StartTracking()
			name = "blkback.submit_ns_tracking_on"
		}
		out[name] = nsPer(fx.blocks, func() {
			for n := 0; n < fx.blocks; n++ {
				_ = be.Submit(blockdev.Request{Op: blockdev.Write, Block: n, Domain: 1, Data: buf}) // in range by the loop bound
			}
		})
	}
}

// readExtent fills buf with count blocks of dev starting at start.
func readExtent(dev blockdev.Device, start, count int, buf []byte) error {
	bs := dev.BlockSize()
	for k := 0; k < count; k++ {
		if err := dev.ReadBlock(start+k, buf[k*bs:(k+1)*bs]); err != nil {
			return err
		}
	}
	return nil
}

// ladderCompress pushes the image's extents through transport.Compressed at
// the workload's level over an in-process pipe: flate alone, no socket.
func ladderCompress(sp *spec, fx *fixture, out map[string]float64) error {
	const extents, per = 48, 64 // 12 MiB: enough for a steady rate, quick enough for the pass
	pa, pb := transport.NewPipe(64)
	meter := transport.NewMeter(pa)
	cs, err := transport.NewCompressed(meter, sp.cfg.CompressLevel)
	if err != nil {
		return err
	}
	cd, err := transport.NewCompressed(pb, sp.cfg.CompressLevel)
	if err != nil {
		return err
	}
	got := pump(cd)
	defer func() {
		cs.Close()
		cd.Close()
		for range got {
		}
	}()
	src := fx.source()
	bufs := make([][]byte, extents)
	for i := range bufs {
		bufs[i] = make([]byte, per*blockdev.BlockSize)
		if err := readExtent(src, (i*per*5)%(fx.blocks-per), per, bufs[i]); err != nil {
			return err
		}
	}
	var fail error
	sendAll := func() {
		for i := 0; i < extents && fail == nil; i++ {
			fail = cs.Send(transport.Message{Type: transport.MsgExtent, Arg: transport.ExtentArg(i*per, per), Payload: bufs[i]})
		}
		for i := 0; i < extents && fail == nil; i++ {
			<-got
		}
	}
	out["transport.compress_ns_per_block"] = nsPer(extents*per, sendAll)
	if fail != nil {
		return fail
	}
	out["transport.compress_ratio"] = float64(3*extents*(per*blockdev.BlockSize+13)) / float64(meter.BytesSent())
	out["transport.compress_allocs_per_frame"] = testing.AllocsPerRun(20, func() {
		if cs.Send(transport.Message{Type: transport.MsgExtent, Arg: transport.ExtentArg(0, per), Payload: bufs[0]}) == nil {
			<-got
		}
	})
	return nil
}

// ladderStripe times extent frames across a striped bundle of the
// workload's width, fences included (one control frame per 16 extents, the
// engine's iteration boundaries being far rarer).
func ladderStripe(sp *spec, out map[string]float64) error {
	a, b, err := loopbackPair(sp.cfg.Streams)
	if err != nil {
		return err
	}
	got := pump(b)
	defer func() {
		a.Close()
		b.Close()
		for range got {
		}
	}()
	extent := make([]byte, 64*blockdev.BlockSize)
	const n = 96
	var fail error
	out["transport.stripe_ns_per_frame"] = nsPer(n, func() {
		for i := 0; i < n && fail == nil; i++ {
			if i%16 == 0 {
				fail = a.Send(transport.Message{Type: transport.MsgIterStart, Arg: uint64(i)})
				if fail == nil {
					<-got
				}
			}
			if fail == nil {
				fail = a.Send(transport.Message{Type: transport.MsgExtent, Arg: transport.ExtentArg(0, 64), Payload: extent})
			}
		}
		for i := 0; i < n && fail == nil; i++ {
			<-got
		}
	})
	return fail
}

// ladderDedup times the per-extent dedup work of both ends on the clone
// image: fingerprinting (source), and answering an advert from a warm index
// plus materializing its references (destination).
func ladderDedup(fx *fixture, out map[string]float64) error {
	const per = 64
	src := fx.source()
	buf := make([]byte, per*blockdev.BlockSize)
	if err := readExtent(src, 0, per, buf); err != nil {
		return err
	}
	fps := make([]dedup.Fingerprint, per)
	fingerprint := func() {
		for k := 0; k < per; k++ {
			fps[k] = dedup.Of(buf[k*blockdev.BlockSize : (k+1)*blockdev.BlockSize])
		}
	}
	out["dedup.fingerprint_ns_per_block"] = nsPer(per, fingerprint)
	_, extra, err := fx.dest()
	if err != nil {
		return err
	}
	idx := extra.DedupIndex
	answer := func() {
		_, stage := idx.Answer(fps)
		for _, fp := range fps {
			idx.Materialize(stage, fp)
		}
	}
	out["dedup.answer_ns_per_fp"] = nsPer(per, answer)
	scratch := make([]byte, 0, per*dedup.FingerprintSize)
	out["dedup.allocs_per_extent"] = testing.AllocsPerRun(20, func() {
		fingerprint()
		_ = dedup.AppendFingerprints(scratch, fps)
		answer()
	})
	return nil
}

// ladderDelta times the codec's three steps on the workload's own extents:
// signature of the stale content, diff of the rewritten content against it,
// apply of the patch.
func ladderDelta(sp *spec, fx *fixture, out map[string]float64) error {
	per := sp.cfg.MaxExtentBlocks
	const extents = 32
	stale, _, err := fx.dest()
	if err != nil {
		return err
	}
	src := fx.source()
	olds, news := make([][]byte, extents), make([][]byte, extents)
	for i := range olds {
		olds[i] = make([]byte, per*blockdev.BlockSize)
		news[i] = make([]byte, per*blockdev.BlockSize)
		if err := readExtent(stale, i*per, per, olds[i]); err != nil {
			return err
		}
		if err := readExtent(src, i*per, per, news[i]); err != nil {
			return err
		}
	}
	sigs := make([]*delta.Signature, extents)
	patches := make([][]byte, extents)
	out["delta.sig_ns_per_block"] = nsPer(extents*per, func() {
		for i := range olds {
			sigs[i] = delta.Sig(olds[i], sp.cfg.DeltaChunk)
		}
	})
	out["delta.diff_ns_per_block"] = nsPer(extents*per, func() {
		for i := range news {
			patches[i] = delta.Diff(sigs[i], news[i])
		}
	})
	var fail error
	out["delta.apply_ns_per_block"] = nsPer(extents*per, func() {
		for i := range patches {
			if _, err := delta.Apply(olds[i], patches[i]); err != nil {
				fail = err
			}
		}
	})
	if fail != nil {
		return fail
	}
	out["delta.allocs_per_block"] = testing.AllocsPerRun(10, func() {
		raw := delta.Sig(olds[0], sp.cfg.DeltaChunk).Marshal()
		sig, err := delta.ParseSignature(raw)
		if err != nil {
			return
		}
		_, _ = delta.Apply(olds[0], delta.Diff(sig, news[0]))
	}) / float64(per)
	return nil
}
