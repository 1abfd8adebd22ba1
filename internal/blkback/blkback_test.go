package blkback

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
)

const bs = blockdev.BlockSize

func block(fill byte) []byte { return bytes.Repeat([]byte{fill}, bs) }

func TestBackendPassthrough(t *testing.T) {
	dev := blockdev.NewMemDisk(16, bs)
	b := NewBackend(dev, 1)
	if b.Device() != dev || b.Domain() != 1 {
		t.Fatal("accessors wrong")
	}
	if err := b.Submit(blockdev.Request{Op: blockdev.Write, Block: 3, Domain: 1, Data: block(7)}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, bs)
	if err := b.Submit(blockdev.Request{Op: blockdev.Read, Block: 3, Domain: 1, Data: buf}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, block(7)) {
		t.Fatal("read mismatch")
	}
	st := b.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.BytesRead != bs || st.BytesWritten != bs {
		t.Fatalf("stats %+v", st)
	}
}

func TestBackendTracksOnlyWhenEnabled(t *testing.T) {
	b := NewBackend(blockdev.NewMemDisk(16, bs), 1)
	w := func(n int) { b.Submit(blockdev.Request{Op: blockdev.Write, Block: n, Domain: 1, Data: block(1)}) }
	w(0)
	if b.DirtyCount() != 0 {
		t.Fatal("tracked before StartTracking")
	}
	b.StartTracking()
	if !b.Tracking() {
		t.Fatal("Tracking false")
	}
	w(1)
	w(2)
	if b.DirtyCount() != 2 {
		t.Fatalf("DirtyCount = %d", b.DirtyCount())
	}
	b.StopTracking()
	w(3)
	if b.DirtyCount() != 2 {
		t.Fatal("tracked after StopTracking")
	}
}

func TestBackendIgnoresForeignDomains(t *testing.T) {
	b := NewBackend(blockdev.NewMemDisk(16, bs), 1)
	b.StartTracking()
	// Domain0 housekeeping writes must not pollute the migration bitmap.
	b.Submit(blockdev.Request{Op: blockdev.Write, Block: 5, Domain: 0, Data: block(9)})
	if b.DirtyCount() != 0 {
		t.Fatal("foreign write tracked")
	}
	if b.Stats().ForeignReqs != 1 {
		t.Fatalf("ForeignReqs = %d", b.Stats().ForeignReqs)
	}
}

func TestBackendRewriteCounting(t *testing.T) {
	b := NewBackend(blockdev.NewMemDisk(16, bs), 1)
	b.StartTracking()
	w := func(n int) { b.Submit(blockdev.Request{Op: blockdev.Write, Block: n, Domain: 1, Data: block(1)}) }
	w(1)
	w(2)
	w(1) // rewrite
	w(1) // rewrite
	st := b.Stats()
	if st.TrackedBits != 2 || st.RewriteHits != 2 {
		t.Fatalf("TrackedBits=%d RewriteHits=%d", st.TrackedBits, st.RewriteHits)
	}
}

func TestBackendSwapDirty(t *testing.T) {
	b := NewBackend(blockdev.NewMemDisk(16, bs), 1)
	b.StartTracking()
	b.Submit(blockdev.Request{Op: blockdev.Write, Block: 4, Domain: 1, Data: block(1)})
	bm := b.SwapDirty()
	if bm.Count() != 1 || !bm.Test(4) {
		t.Fatal("SwapDirty contents wrong")
	}
	if b.DirtyCount() != 0 {
		t.Fatal("SwapDirty did not reset")
	}
	snap := b.DirtySnapshot()
	if snap.Count() != 0 {
		t.Fatal("snapshot after swap not empty")
	}
}

func TestBackendSeedDirty(t *testing.T) {
	b := NewBackend(blockdev.NewMemDisk(16, bs), 1)
	seed := bitmap.New(16)
	seed.Set(2)
	seed.Set(9)
	b.SeedDirty(seed)
	if b.DirtyCount() != 2 || !b.DirtySnapshot().Test(9) {
		t.Fatal("SeedDirty wrong")
	}
}

func TestBackendBadOp(t *testing.T) {
	b := NewBackend(blockdev.NewMemDisk(4, bs), 1)
	if err := b.Submit(blockdev.Request{Op: blockdev.Op(9), Block: 0}); err == nil {
		t.Fatal("bad op accepted")
	}
}

// --- PostCopyGate ---

type gateEnv struct {
	dev   *blockdev.MemDisk
	gate  *PostCopyGate
	pulls chan int
}

func newGateEnv(t *testing.T, dirty ...int) *gateEnv {
	t.Helper()
	dev := blockdev.NewMemDisk(32, bs)
	bm := bitmap.New(32)
	for _, d := range dirty {
		bm.Set(d)
	}
	e := &gateEnv{dev: dev, pulls: make(chan int, 64)}
	e.gate = NewPostCopyGate(dev, 1, bm, func(n int) error {
		e.pulls <- n
		return nil
	})
	return e
}

func TestGateCleanReadPassesThrough(t *testing.T) {
	e := newGateEnv(t, 5)
	e.dev.WriteBlock(3, block(0xAA))
	buf := make([]byte, bs)
	if err := e.gate.Submit(blockdev.Request{Op: blockdev.Read, Block: 3, Domain: 1, Data: buf}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, block(0xAA)) {
		t.Fatal("clean read wrong data")
	}
	select {
	case n := <-e.pulls:
		t.Fatalf("unexpected pull of %d", n)
	default:
	}
}

func TestGateDirtyReadPullsAndWaits(t *testing.T) {
	e := newGateEnv(t, 7)
	buf := make([]byte, bs)
	done := make(chan error, 1)
	go func() {
		done <- e.gate.Submit(blockdev.Request{Op: blockdev.Read, Block: 7, Domain: 1, Data: buf})
	}()
	n := <-e.pulls
	if n != 7 {
		t.Fatalf("pulled %d", n)
	}
	select {
	case <-done:
		t.Fatal("read completed before block arrived")
	case <-time.After(20 * time.Millisecond):
	}
	if err := e.gate.ReceiveBlock(7, block(0xBB)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, block(0xBB)) {
		t.Fatal("read returned stale data")
	}
	st := e.gate.Stats()
	if st.Pulls != 1 || st.PullHits != 1 || st.AppliedBlocks != 1 || st.ReadStallTime <= 0 {
		t.Fatalf("stats %+v", st)
	}
	if !e.gate.Synchronized() {
		t.Fatal("gate not synchronized after last block")
	}
}

// TestGatePullErrorAfterPushArrived is the regression test for a read that
// queued on a dirty block, lost the race with the push of that block, and
// then pulled over a link the finished migration had already closed: the
// block is there, so the read must succeed with the pushed content. A pull
// that fails with nothing delivered still fails the read.
func TestGatePullErrorAfterPushArrived(t *testing.T) {
	dev := blockdev.NewMemDisk(32, bs)
	bm := bitmap.New(32)
	bm.Set(7)
	bm.Set(9)
	linkClosed := errors.New("use of closed network connection")
	var gate *PostCopyGate
	gate = NewPostCopyGate(dev, 1, bm, func(n int) error {
		if n == 7 { // the push lands between the read's queueing and its pull
			if err := gate.ReceiveBlock(7, block(0xCC)); err != nil {
				t.Error(err)
			}
		}
		return linkClosed
	})
	buf := make([]byte, bs)
	if err := gate.Submit(blockdev.Request{Op: blockdev.Read, Block: 7, Domain: 1, Data: buf}); err != nil {
		t.Fatalf("read of a block that had already arrived failed: %v", err)
	}
	if !bytes.Equal(buf, block(0xCC)) {
		t.Fatal("read did not return the pushed content")
	}
	err := gate.Submit(blockdev.Request{Op: blockdev.Read, Block: 9, Domain: 1, Data: buf})
	if !errors.Is(err, linkClosed) {
		t.Fatalf("read of a block that never arrived: %v, want the pull's error", err)
	}
}

// lateBitDisk fails the test if a tracked write's dirty bit is visible
// before the write has reached the device.
type lateBitDisk struct {
	*blockdev.MemDisk
	t       *testing.T
	backend *Backend
}

func (d *lateBitDisk) WriteBlock(n int, data []byte) error {
	if d.backend.DirtyCount() != 0 {
		d.t.Errorf("block %d marked dirty before its data landed", n)
	}
	return d.MemDisk.WriteBlock(n, data)
}

// TestBackendMarksDirtyAfterWrite pins the order the pre-copy loop relies
// on: a bit in the tracker means the data is on the device, so a bit that
// was swapped out (or a block skipped as re-dirtied) is never read stale.
func TestBackendMarksDirtyAfterWrite(t *testing.T) {
	dev := &lateBitDisk{MemDisk: blockdev.NewMemDisk(8, bs), t: t}
	b := NewBackend(dev, 1)
	dev.backend = b
	b.StartTracking()
	if err := b.Submit(blockdev.Request{Op: blockdev.Write, Block: 3, Domain: 1, Data: block(1)}); err != nil {
		t.Fatal(err)
	}
	if b.DirtyCount() != 1 || !b.DirtySnapshot().Test(3) {
		t.Fatal("write not tracked")
	}
}

func TestGateDuplicateReadsOnePull(t *testing.T) {
	e := newGateEnv(t, 4)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, bs)
			errs[i] = e.gate.Submit(blockdev.Request{Op: blockdev.Read, Block: 4, Domain: 1, Data: buf})
		}(i)
	}
	<-e.pulls
	// give the other readers time to queue
	time.Sleep(20 * time.Millisecond)
	e.gate.ReceiveBlock(4, block(1))
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	st := e.gate.Stats()
	if st.Pulls != 1 {
		t.Fatalf("Pulls = %d, want 1 (deduplicated)", st.Pulls)
	}
	if st.PendingReleases < 2 {
		t.Fatalf("PendingReleases = %d", st.PendingReleases)
	}
}

func TestGateWriteSupersedesPush(t *testing.T) {
	e := newGateEnv(t, 9)
	// VM writes the dirty block: bit cleared, fresh bit set.
	if err := e.gate.Submit(blockdev.Request{Op: blockdev.Write, Block: 9, Domain: 1, Data: block(0xCC)}); err != nil {
		t.Fatal(err)
	}
	if e.gate.NeedsPush(9) {
		t.Fatal("NeedsPush after local write")
	}
	// The source's push of the old content must be dropped.
	if err := e.gate.ReceiveBlock(9, block(0x11)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, bs)
	e.dev.ReadBlock(9, buf)
	if !bytes.Equal(buf, block(0xCC)) {
		t.Fatal("stale push overwrote local write")
	}
	st := e.gate.Stats()
	if st.StalePushes != 1 || st.WriteOverlaps != 1 {
		t.Fatalf("stats %+v", st)
	}
	if !e.gate.FreshBitmap().Test(9) {
		t.Fatal("fresh bitmap missing local write")
	}
	if !e.gate.Synchronized() {
		t.Fatal("write should have synchronized the block")
	}
}

func TestGateWriteReleasesPendingReaders(t *testing.T) {
	e := newGateEnv(t, 6)
	buf := make([]byte, bs)
	done := make(chan error, 1)
	go func() {
		done <- e.gate.Submit(blockdev.Request{Op: blockdev.Read, Block: 6, Domain: 1, Data: buf})
	}()
	<-e.pulls
	// A local write lands before the pull reply: the reader must be
	// released with the written data rather than deadlock.
	if err := e.gate.Submit(blockdev.Request{Op: blockdev.Write, Block: 6, Domain: 1, Data: block(0xDD)}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("reader deadlocked after superseding write")
	}
	if !bytes.Equal(buf, block(0xDD)) {
		t.Fatal("reader saw stale data")
	}
	// late pull reply is dropped
	e.gate.ReceiveBlock(6, block(0x22))
	e.dev.ReadBlock(6, buf)
	if !bytes.Equal(buf, block(0xDD)) {
		t.Fatal("late pull reply overwrote local write")
	}
}

func TestGateForeignDomainBypasses(t *testing.T) {
	e := newGateEnv(t, 2)
	buf := make([]byte, bs)
	// Domain0 reads a dirty block without pulling: the gate only protects
	// the migrated VM's view (paper line 3-4).
	if err := e.gate.Submit(blockdev.Request{Op: blockdev.Read, Block: 2, Domain: 0, Data: buf}); err != nil {
		t.Fatal(err)
	}
	if e.gate.Stats().ForeignReqs != 1 {
		t.Fatal("foreign not counted")
	}
	select {
	case <-e.pulls:
		t.Fatal("foreign read triggered pull")
	default:
	}
}

func TestGatePushedBlocksDrainPendingOnly(t *testing.T) {
	e := newGateEnv(t, 1, 2, 3)
	// plain pushes with no readers waiting
	for _, n := range []int{1, 2, 3} {
		if err := e.gate.ReceiveBlock(n, block(byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	if !e.gate.Synchronized() || e.gate.RemainingDirty() != 0 {
		t.Fatal("pushes did not synchronize")
	}
	buf := make([]byte, bs)
	e.dev.ReadBlock(2, buf)
	if !bytes.Equal(buf, block(2)) {
		t.Fatal("pushed content wrong")
	}
	// duplicate push of an already-clean block is dropped
	if err := e.gate.ReceiveBlock(2, block(0xFF)); err != nil {
		t.Fatal(err)
	}
	e.dev.ReadBlock(2, buf)
	if !bytes.Equal(buf, block(2)) {
		t.Fatal("duplicate push applied")
	}
}

func TestGateCloseFailsPendingReads(t *testing.T) {
	e := newGateEnv(t, 8)
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, bs)
		done <- e.gate.Submit(blockdev.Request{Op: blockdev.Read, Block: 8, Domain: 1, Data: buf})
	}()
	<-e.pulls
	e.gate.Close()
	e.gate.Close() // idempotent
	if err := <-done; !errors.Is(err, ErrGateClosed) {
		t.Fatalf("pending read after Close: %v", err)
	}
	buf := make([]byte, bs)
	if err := e.gate.Submit(blockdev.Request{Op: blockdev.Read, Block: 8, Domain: 1, Data: buf}); !errors.Is(err, ErrGateClosed) {
		t.Fatalf("new read after Close: %v", err)
	}
}

func TestGateBadOpAndGeometry(t *testing.T) {
	e := newGateEnv(t)
	if err := e.gate.Submit(blockdev.Request{Op: blockdev.Op(7), Block: 0, Domain: 1}); err == nil {
		t.Fatal("bad op accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched bitmap accepted")
		}
	}()
	NewPostCopyGate(blockdev.NewMemDisk(8, bs), 1, bitmap.New(9), nil)
}

// TestGateConcurrentStress runs readers, writers, and a pusher concurrently
// and then checks the gate converged with no lost updates: the device ends
// fully synchronized and every read either pulled or passed through.
func TestGateConcurrentStress(t *testing.T) {
	const nblocks = 64
	dev := blockdev.NewMemDisk(nblocks, bs)
	dirty := bitmap.NewAllSet(nblocks)
	pulls := make(chan int, nblocks*4)
	gate := NewPostCopyGate(dev, 1, dirty.Clone(), func(n int) error {
		pulls <- n
		return nil
	})

	// source content: block n filled with n
	source := blockdev.NewMemDisk(nblocks, bs)
	for n := 0; n < nblocks; n++ {
		source.WriteBlock(n, block(byte(n)))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// pull server (not in wg: it runs until explicitly stopped)
	go func() {
		for {
			select {
			case n := <-pulls:
				buf := make([]byte, bs)
				source.ReadBlock(n, buf)
				gate.ReceiveBlock(n, buf)
			case <-stop:
				return
			}
		}
	}()
	// pusher: pushes all blocks in order
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, bs)
		for n := 0; n < nblocks; n++ {
			source.ReadBlock(n, buf)
			gate.ReceiveBlock(n, buf)
		}
	}()
	// VM readers
	readErrs := make(chan error, 16)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, bs)
			for i := 0; i < 32; i++ {
				n := (r*13 + i*7) % nblocks
				if err := gate.Submit(blockdev.Request{Op: blockdev.Read, Block: n, Domain: 1, Data: buf}); err != nil {
					readErrs <- err
					return
				}
			}
		}(r)
	}
	// VM writers
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				n := (w*29 + i*11) % nblocks
				if err := gate.Submit(blockdev.Request{Op: blockdev.Write, Block: n, Domain: 1, Data: block(0xF0 + byte(w))}); err != nil {
					readErrs <- err
					return
				}
			}
		}(w)
	}
	waitDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(waitDone)
	}()
	// The pusher alone guarantees convergence in finite time.
	select {
	case <-waitDone:
	case err := <-readErrs:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("stress test did not converge")
	}
	close(stop)
	if !gate.Synchronized() {
		t.Fatalf("gate not synchronized: %d dirty left", gate.RemainingDirty())
	}
}
