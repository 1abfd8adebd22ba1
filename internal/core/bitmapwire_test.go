package core

import (
	"encoding/binary"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// These tests hold the engine to the bitmap wire encoding (WIRE.md §4) at
// the disk sizes where the runs form is chosen — the golden traces and the
// rest of the suite run on 2 048-block disks, which always get the dense
// form — and every decode site to the size of the device behind it.

const runsTag = 1 // top byte of a runs-form bitmap header

// sentFrame is one frame a frameTap saw go out.
type sentFrame struct {
	typ      transport.MsgType
	size     int    // wire bytes
	start, n int    // blocks or pages carried
	payload  []byte // kept for MsgBitmap only
}

// frameTap records the frames sent through it.
type frameTap struct {
	transport.Conn
	mu     sync.Mutex
	frames []sentFrame
}

func (f *frameTap) Send(m transport.Message) error {
	fr := sentFrame{typ: m.Type, size: m.FrameSize()}
	fr.start, fr.n = transport.CarriedUnits(m)
	if m.Type == transport.MsgBitmap {
		fr.payload = append([]byte(nil), m.Payload...)
	}
	f.mu.Lock()
	f.frames = append(f.frames, fr)
	f.mu.Unlock()
	return f.Conn.Send(m)
}

// freezeWindow returns the wire bytes from MsgSuspend through MsgResume, the
// MsgBitmap frame inside it, and the frames sent after MsgResume.
func (f *frameTap) freezeWindow(t *testing.T) (bytes int, bm sentFrame, after []sentFrame) {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	open := false
	for i, fr := range f.frames {
		if fr.typ == transport.MsgSuspend {
			open = true
		}
		if open {
			bytes += fr.size
		}
		if fr.typ == transport.MsgBitmap {
			bm = fr
		}
		if open && fr.typ == transport.MsgResume {
			return bytes, bm, f.frames[i+1:]
		}
	}
	t.Fatal("no SUSPEND … RESUME window on the wire")
	return
}

func denseBitmapLen(bits int) int { return 8 + 8*((bits+63)/64) }

// TestFreezeWindowCarriesDirtySetNotDiskSize: the paper-scale incremental
// return of an idle guest on the default config. The freeze set is empty, so
// the frozen window is the CPU state and four frame headers — not the
// 1 250 248-byte dense bitmap of a 10 001 920-block disk — and the whole
// migration is that much lighter.
func TestFreezeWindowCarriesDirtySetNotDiskSize(t *testing.T) {
	const blocks, divergent = 10_001_920, 400
	diverged := workload.WriteSet(workload.New(workload.Web, blocks, 1), blocks, divergent)
	w := newWorld(t, worldSpec{blocks: blocks, fill: filled(diverged)})
	tap := &frameTap{Conn: w.connSrc}
	w.connSrc = tap
	rep, _ := w.tpm(Config{}, Config{}, diverged.Clone())

	frozen, bm, _ := tap.freezeWindow(t)
	if frozen > 1024 {
		t.Fatalf("%d bytes crossed the link between SUSPEND and RESUME, want <= 1024", frozen)
	}
	if len(bm.payload) != 8 {
		t.Fatalf("empty freeze bitmap travelled as %d bytes, want the bare 8-byte header", len(bm.payload))
	}
	if saved := denseBitmapLen(blocks) - len(bm.payload); saved < 1_200_000 {
		t.Fatalf("freeze bitmap saves %d bytes against the dense form, want >= 1.2 MB", saved)
	}
	// Every other frame is what it always was, so the report shows the
	// saving: payload plus per-frame overhead, nowhere near 1.25 MB more.
	payload := int64(divergent+testPages) * (blockdev.BlockSize + 13)
	if rep.MigratedBytes > payload+16<<10 {
		t.Fatalf("migrated %d bytes for %d bytes of blocks and pages: the bitmap is still paying for the disk size",
			rep.MigratedBytes, payload)
	}
}

// TestLiveFreezeSetTravelsCompact: a TPM under a progress-paced rewriting
// guest on a 65 536-block disk, so a non-empty freeze set travels in the
// runs form. The destination decodes exactly the set the source froze,
// post-copy pushes and pulls exactly that set, and the disks end up equal.
func TestLiveFreezeSetTravelsCompact(t *testing.T) {
	const blocks, hot = 1 << 16, 96
	allocated := bitmap.New(blocks)
	for n := 0; n < blocks; n += 16 {
		allocated.Set(n)
	}
	w := newWorld(t, worldSpec{blocks: blocks, fill: filled(allocated)})
	hotBlock := func(i int) int { return (i * 7 % hot) * 601 }
	tap := &frameTap{Conn: w.connSrc}
	block := make([]byte, blockdev.BlockSize)
	guest := &workload.Paced{Conn: tap, Every: 8, Round: func(i int) {
		if err := w.shadow.Submit(blockdev.Request{Op: blockdev.Write, Domain: testDomain, Block: hotBlock(i), Data: block}); err != nil {
			t.Errorf("guest write: %v", err)
		}
	}}

	// After the resume the guest reads its hot set back through the gate: a
	// block still owed is pulled, and every read must see the last write.
	resumed, readsDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(readsDone)
		<-resumed
		got := make([]byte, blockdev.BlockSize)
		for i := 0; i < hot; i++ {
			if err := w.shadow.Submit(blockdev.Request{Op: blockdev.Read, Domain: testDomain, Block: hotBlock(i), Data: got}); err != nil {
				t.Errorf("guest read of block %d after resume: %v", hotBlock(i), err)
				return
			}
		}
	}()

	cfg := Config{SkipUnused: true, MaxExtentBlocks: 16, DiskDirtyThreshold: 8}
	srcCfg, dstCfg := cfg, cfg
	srcCfg.OnFreeze = func() {
		guest.Stop()
		w.router.Freeze()
	}
	dstCfg.OnResume = func(g *blkback.PostCopyGate) {
		w.router.ResumeGate(g)
		close(resumed)
	}
	w.connSrc = guest
	rep, _ := w.tpm(srcCfg, dstCfg, nil)
	<-readsDone

	_, bm, after := tap.freezeWindow(t)
	if bm.payload[7] != runsTag || denseBitmapLen(blocks)-len(bm.payload) < 4096 {
		t.Fatalf("freeze bitmap travelled as %d bytes with tag %d, want the runs form", len(bm.payload), bm.payload[7])
	}
	froze, err := bitmap.UnmarshalSized(bm.payload, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if froze.Count() == 0 {
		t.Fatal("the racing guest left nothing dirty at the freeze: the test did not exercise a non-empty set")
	}
	carried := bitmap.New(blocks)
	for _, fr := range after {
		if fr.n > 0 {
			carried.SetRange(fr.start, fr.start+fr.n)
		}
	}
	if !carried.Equal(froze) {
		t.Fatalf("post-copy carried %v, the freeze bitmap held %v", carried, froze)
	}
	if rep.BlocksPushed+rep.BlocksPulled < froze.Count() {
		t.Fatalf("pushed %d + pulled %d blocks of a freeze set of %d", rep.BlocksPushed, rep.BlocksPulled, froze.Count())
	}
}

// ackTap keeps the first frame received on a redialed link: the session ack.
type ackTap struct {
	transport.Conn
	ack *transport.Message
}

func (a *ackTap) Recv() (transport.Message, error) {
	m, err := a.Conn.Recv()
	if err == nil && a.ack.Type == 0 {
		*a.ack = transport.Message{Type: m.Type, Payload: append([]byte(nil), m.Payload...)}
	}
	return m, err
}

// dropConn is a link that loses every frame sent through it.
type dropConn struct{ transport.Conn }

func (dropConn) Send(transport.Message) error { return nil }

// TestPushCarriesTheFreezeSetInOrder pushes a freeze set of 1 344 runs
// spread over the paper's 10 001 920-block disk, some longer than the live
// extent limit. The push carries exactly the set — every run cut at the
// limit, in ascending order — then PUSH_DONE, however far into the disk the
// last cut ended.
func TestPushCarriesTheFreezeSetInOrder(t *testing.T) {
	const blocks, limit = 10_001_920, 16
	disk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	host := Host{VM: vm.New("guest", testDomain, testPages, 0), Backend: blkback.NewBackend(disk, testDomain)}
	tap := &frameTap{Conn: dropConn{}}
	s := newSourceRun(Config{MaxExtentBlocks: limit}, host, tap, "TPM")
	set := bitmap.New(blocks)
	var want []sentFrame
	for i := 0; i < 1344; i++ {
		start, n := i*7441, 1+i%40
		set.SetRange(start, start+n)
		for c := 0; c < n; c += limit {
			want = append(want, sentFrame{start: start + c, n: min(limit, n-c)})
		}
	}
	if err := s.pushBlocks(set); err != nil {
		t.Fatal(err)
	}
	frames := tap.frames
	if len(frames) != len(want)+1 || frames[len(want)].typ != transport.MsgPushDone {
		t.Fatalf("%d frames, want %d extents and PUSH_DONE", len(frames), len(want))
	}
	for i, w := range want {
		if got := frames[i]; got.start != w.start || got.n != w.n {
			t.Fatalf("frame %d carries [%d,+%d), want [%d,+%d)", i, got.start, got.n, w.start, w.n)
		}
	}
	if s.rep.BlocksPushed != set.Count() {
		t.Fatalf("pushed %d blocks of a %d-block set", s.rep.BlocksPushed, set.Count())
	}
}

// TestResumeCursorTravelsCompact cuts the link halfway through the first
// iteration of a 65 536-block disk. The destination's transfer cursor comes
// back in the runs form, and the resumed iteration still re-sends only what
// that cursor does not confirm.
func TestResumeCursorTravelsCompact(t *testing.T) {
	const blocks, stride = 1 << 16, 32
	allocated := bitmap.New(blocks)
	for n := 0; n < blocks; n += stride {
		allocated.Set(n)
	}
	owed := allocated.Count()
	w := newWorld(t, worldSpec{blocks: blocks, fill: filled(allocated)})

	inj := transport.NewInjector([]transport.Fault{{AfterSends: int64(2 + owed/2), Kind: transport.FaultCut}})
	relink := newPipeRelinker(inj)
	sends := make([]int, blocks)
	var ack transport.Message
	var iters []Event
	srcCfg := Config{
		SkipUnused: true,
		MaxRetries: 5, RetryBackoff: time.Millisecond,
		Redial: func() (transport.Conn, error) {
			c, err := relink.redial()
			return &ackTap{Conn: &blockLog{Conn: c, sends: sends}, ack: &ack}, err
		},
		OnEvent: func(ev Event) {
			if ev.Kind == EventIterationEnd && ev.Phase == PhaseDiskPreCopy {
				iters = append(iters, ev)
			}
		},
	}
	w.connSrc = &blockLog{Conn: inj.Wrap(w.connSrc), sends: sends}
	rep, _ := w.tpm(srcCfg, Config{WaitReconnect: relink.waitReconnect}, nil)
	if rep.Retries != 1 {
		t.Fatalf("survived %d retries, want 1", rep.Retries)
	}

	// flags(1) diskIters(4) memIters(4), then the disk cursor section:
	// iteration(4) length(4) bitmap.
	if ack.Type != transport.MsgSessionAck || len(ack.Payload) < 17+8 {
		t.Fatalf("no session ack with a disk cursor captured: %v, %d bytes", ack.Type, len(ack.Payload))
	}
	cursorLen := int(binary.LittleEndian.Uint32(ack.Payload[13:]))
	cursor := ack.Payload[17 : 17+cursorLen]
	if cursor[7] != runsTag || denseBitmapLen(blocks)-cursorLen < 4096 {
		t.Fatalf("disk cursor travelled as %d bytes with tag %d, want the runs form", cursorLen, cursor[7])
	}
	confirmed, err := bitmap.UnmarshalSized(cursor, blocks)
	if err != nil {
		t.Fatal(err)
	}
	// The pipe holds 64 frames: the destination had confirmed all but those
	// in flight at the cut, and only the rest travels again.
	if got := confirmed.Count(); got < owed/2-2*64 || got > owed/2 {
		t.Fatalf("cursor confirms %d blocks of the %d sent before the cut", got, owed/2)
	}
	resumedIter := iters[0]
	if resumedIter.Iteration != 1 || resumedIter.Units != owed-confirmed.Count() {
		t.Fatalf("resumed iteration 1 sent %d blocks, want the %d the cursor does not confirm", resumedIter.Units, owed-confirmed.Count())
	}
	for b, n := range sends {
		switch {
		case !allocated.Test(b) && n != 0:
			t.Fatalf("unallocated block %d sent %d times", b, n)
		case allocated.Test(b) && confirmed.Test(b) && n != 1:
			t.Fatalf("block %d, confirmed by the cursor, was sent %d times", b, n)
		case allocated.Test(b) && n < 1:
			t.Fatalf("block %d never sent", b)
		}
	}
}

// lyingConn replaces the payload of the first frame of one type.
type lyingConn struct {
	transport.Conn
	typ     transport.MsgType
	payload []byte
}

func (l *lyingConn) Send(m transport.Message) error {
	if m.Type == l.typ {
		m.Payload = l.payload
	}
	return l.Conn.Send(m)
}

// wrongSizedBitmaps are freeze bitmaps no destination of testBlocks blocks
// may accept: a dense one for a larger disk, and ten bytes of runs form
// declaring a terabit.
func wrongSizedBitmaps(t *testing.T) map[string][]byte {
	t.Helper()
	dense, err := bitmap.NewAllSet(testBlocks + 64).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	runs := binary.LittleEndian.AppendUint64(nil, 1<<40|runsTag<<56)
	return map[string][]byte{"dense, 64 blocks too long": dense, "runs, a terabit": append(runs, 5, 1)}
}

// TestDestRefusesWrongSizedFreezeBitmap: a source whose freeze bitmap does
// not match the destination's device is refused at the frame, before a
// post-copy gate is built over it.
func TestDestRefusesWrongSizedFreezeBitmap(t *testing.T) {
	for name, lie := range wrongSizedBitmaps(t) {
		t.Run(name, func(t *testing.T) {
			w := newWorld(t)
			w.connSrc = &lyingConn{Conn: w.connSrc, typ: transport.MsgBitmap, payload: lie}
			_, res, srcErr, dstErr := w.tpmPair(Config{}, Config{}, nil)
			if dstErr == nil || !strings.Contains(dstErr.Error(), "freeze bitmap") {
				t.Fatalf("destination accepted a freeze bitmap of the wrong size: %v", dstErr)
			}
			if res.Gate != nil || w.dst.VM.State() == vm.Running {
				t.Fatal("destination built a gate or resumed the VM on a refused bitmap")
			}
			if srcErr == nil {
				t.Fatal("source completed against a destination that refused its bitmap")
			}
		})
	}
}

// TestOnDemandDestRefusesWrongSizedBitmap is the same guard on the
// on-demand baseline's destination.
func TestOnDemandDestRefusesWrongSizedBitmap(t *testing.T) {
	for name, lie := range wrongSizedBitmaps(t) {
		t.Run(name, func(t *testing.T) {
			w := newWorld(t)
			var res *DestResult
			srcErr, dstErr := w.runPair(
				func() error {
					_, err := MigrateOnDemandSource(Config{}, w.src, &lyingConn{Conn: w.connSrc, typ: transport.MsgBitmap, payload: lie})
					return err
				},
				func() (err error) {
					res, err = MigrateOnDemandDest(Config{}, w.dst, w.connDst, make(chan struct{}))
					return err
				})
			if dstErr == nil || !strings.Contains(dstErr.Error(), "bitmap") {
				t.Fatalf("destination accepted a bitmap of the wrong size: %v", dstErr)
			}
			if res.Gate != nil {
				t.Fatal("destination built a gate on a refused bitmap")
			}
			if srcErr == nil {
				t.Fatal("source completed against a destination that refused its bitmap")
			}
		})
	}
}

// TestSessionAckRefusesWrongSizedCursor: the destination's transfer cursors
// are subtracted from the source's own iteration bitmaps, so each must be
// exactly the source's disk or memory size.
func TestSessionAckRefusesWrongSizedCursor(t *testing.T) {
	good := destProgress{
		diskIters: 1, recvDiskNum: 2, recvDisk: newBitmapWith(testBlocks, 10, 5),
		recvMemNum: 1, recvMem: newBitmapWith(testPages, 3, 2),
	}
	data, err := good.marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseDestProgress(data, testBlocks, testPages)
	if err != nil || !got.recvDisk.Equal(good.recvDisk) || !got.recvMem.Equal(good.recvMem) {
		t.Fatalf("matching cursors refused or mangled: %v", err)
	}
	if _, err := parseDestProgress(data, testBlocks+64, testPages); err == nil {
		t.Fatal("disk cursor of another disk's size accepted")
	}
	if _, err := parseDestProgress(data, testBlocks, testPages-1); err == nil {
		t.Fatal("memory cursor of another memory's size accepted")
	}
	// A runs-form cursor declaring a terabit must not be allocated for.
	lie := wrongSizedBitmaps(t)["runs, a terabit"]
	payload := append([]byte(nil), data[:9]...)
	payload = binary.LittleEndian.AppendUint32(payload, 2)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(lie)))
	payload = append(payload, lie...)
	payload = append(payload, 0, 0, 0, 0, 0, 0, 0, 0) // absent memory cursor
	if _, err := parseDestProgress(payload, testBlocks, testPages); err == nil {
		t.Fatal("terabit disk cursor accepted")
	}
}

// TestJournalRefusesAnotherDisksPendingSet: a journal is loaded for a disk,
// and a pending set of any other size is refused.
func TestJournalRefusesAnotherDisksPendingSet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.bin")
	j := &Journal{Path: path}
	if err := j.Checkpoint(JournalState{Phase: PhaseDiskPreCopy, Iter: 1, Pending: newBitmapWith(testBlocks, 7, 9)}); err != nil {
		t.Fatal(err)
	}
	if st, err := LoadJournal(path, testBlocks); err != nil || st.Pending.Count() != 9 {
		t.Fatalf("journal for its own disk: %v", err)
	}
	if _, err := LoadJournal(path, testBlocks*2); err == nil {
		t.Fatal("journal loaded for a disk of another size")
	}
}

// TestVaultRefusesAnotherDisksSets: a vault arriving with a VM must describe
// the receiver's disk, in its header and in every peer's divergence set.
func TestVaultRefusesAnotherDisksSets(t *testing.T) {
	v := NewVault(testBlocks)
	v.MarkSynced("alpha")
	v.RecordWrites(newBitmapWith(testBlocks, 10, 25))
	data, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := UnmarshalVault(data, testBlocks); err != nil || got.DivergentBlocks("alpha") != 25 {
		t.Fatalf("vault for its own disk: %v", err)
	}
	if _, err := UnmarshalVault(data, testBlocks+64); err == nil {
		t.Fatal("vault accepted for a disk of another size")
	}
	// A header that matches the device over a peer set that does not.
	lie := wrongSizedBitmaps(t)["runs, a terabit"]
	forged := binary.LittleEndian.AppendUint64(nil, testBlocks)
	forged = binary.LittleEndian.AppendUint32(forged, 1)
	forged = binary.LittleEndian.AppendUint16(forged, 5)
	forged = binary.LittleEndian.AppendUint32(forged, uint32(len(lie)))
	forged = append(append(forged, "alpha"...), lie...)
	if _, err := UnmarshalVault(forged, testBlocks); err == nil {
		t.Fatal("vault with a terabit peer set accepted")
	}
}
