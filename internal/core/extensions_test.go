package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// TestVaultMultiHost walks a VM A→B→C→A and checks each hop's initial
// bitmap is exactly the divergence the receiving host missed.
func TestVaultMultiHost(t *testing.T) {
	const blocks = 1000
	v := NewVault(blocks)

	// VM starts on A; B and C have never seen the disk.
	if v.DivergentBlocks("B") != -1 {
		t.Fatal("unknown peer reports divergence")
	}
	if got := v.InitialFor("B").Count(); got != blocks {
		t.Fatalf("unknown peer initial = %d, want all-set %d", got, blocks)
	}

	// Migrate A→B (full). B's vault now knows A as synchronized.
	v.MarkSynced("A")
	if got := v.InitialFor("A").Count(); got != 0 {
		t.Fatalf("freshly synced peer diverges by %d", got)
	}

	// Work on B dirties blocks 0-99: A is now behind by those.
	dirty := newBitmapWith(blocks, 0, 100)
	v.RecordWrites(dirty)
	if got := v.DivergentBlocks("A"); got != 100 {
		t.Fatalf("A divergence = %d, want 100", got)
	}

	// Migrate B→C (C unknown → full). After sync, C registers; A keeps
	// its 100-block divergence (the vault state travels with the VM).
	if got := v.InitialFor("C").Count(); got != blocks {
		t.Fatal("C should need a full migration")
	}
	v.MarkSynced("C")

	// Work on C dirties 50-149: now A is behind by 0-149, C's old host B
	// by 50-149.
	v.MarkSynced("B") // B was left synchronized at the migration point
	v.RecordWrites(newBitmapWith(blocks, 50, 100))
	if got := v.DivergentBlocks("A"); got != 150 {
		t.Fatalf("A divergence = %d, want 150", got)
	}
	if got := v.DivergentBlocks("B"); got != 100 {
		t.Fatalf("B divergence = %d, want 100", got)
	}
	// Migrating back to A needs 150 blocks, not the whole kilobyte disk.
	if got := v.InitialFor("A").Count(); got != 150 {
		t.Fatalf("A initial = %d", got)
	}
	v.MarkSynced("A")
	if got := v.DivergentBlocks("A"); got != 0 {
		t.Fatal("A not reset after sync")
	}
	if len(v.Peers()) != 3 {
		t.Fatalf("peers = %v", v.Peers())
	}
}

func newBitmapWith(n, lo, count int) *bitmap.Bitmap {
	bm := bitmap.New(n)
	bm.SetRange(lo, lo+count)
	return bm
}

// TestVaultPanicsOnSizeMismatch guards the geometry invariant.
func TestVaultPanicsOnSizeMismatch(t *testing.T) {
	v := NewVault(10)
	v.MarkSynced("A")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	v.RecordWrites(bitmap.New(11))
}

// TestVaultDrivenIM runs a real three-host migration chain using the vault
// to seed each hop, verifying disk consistency at every stop.
func TestVaultDrivenIM(t *testing.T) {
	disks := map[string]*blockdev.MemDisk{
		"A": blockdev.NewMemDisk(testBlocks, blockdev.BlockSize),
		"B": blockdev.NewMemDisk(testBlocks, blockdev.BlockSize),
		"C": blockdev.NewMemDisk(testBlocks, blockdev.BlockSize),
	}
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < testBlocks; n += 4 {
		workload.FillBlock(buf, n, 0)
		disks["A"].WriteBlock(n, buf)
	}
	guest := vm.New("vaulted", testDomain, 64, 256)
	vault := NewVault(testBlocks)
	cur := "A"
	// The guest's disk is whichever host it runs on.
	shadow, err := workload.NewShadow(disks["A"], func(req blockdev.Request) error { return disks[cur].WriteBlock(req.Block, req.Data) })
	if err != nil {
		t.Fatal(err)
	}

	// writeSome dirties a few blocks on the current host and tells the vault.
	writeSome := func(lo, n int) {
		for i := lo; i < lo+n; i++ {
			if err := shadow.Submit(blockdev.Request{Op: blockdev.Write, Block: i, Domain: testDomain, Data: buf}); err != nil {
				t.Fatal(err)
			}
		}
		vault.RecordWrites(newBitmapWith(testBlocks, lo, n))
	}

	hop := func(to string) {
		w := assemble(t, worldSpec{}, disks[cur], disks[to], guest)
		w.shadow = shadow
		w.tpm(Config{}, Config{}, vault.InitialFor(to))
		vault.MarkSynced(cur) // the host we left holds a synced copy
		vault.MarkSynced(to)
		cur = to
		guest = w.dst.VM
	}

	writeSome(100, 30)
	hop("B")
	writeSome(200, 20)
	hop("C")
	writeSome(300, 10)
	hop("A") // back to A: must carry blocks 200-219 and 300-309, not everything
	if v := vault.DivergentBlocks("A"); v != 0 {
		t.Fatalf("A still diverges by %d", v)
	}
}

// TestCompressedMigration runs TPM through symmetric compression wrappers
// and verifies consistency plus a wire-byte reduction on the zero-heavy
// disk.
func TestCompressedMigration(t *testing.T) {
	var meter *transport.Meter
	compressed := func(src, dst transport.Conn) (transport.Conn, transport.Conn) {
		meter = transport.NewMeter(src)
		cs, err := transport.NewCompressed(meter, 6)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := transport.NewCompressed(dst, 6)
		if err != nil {
			t.Fatal(err)
		}
		return cs, cd
	}
	rep, _ := newWorld(t, worldSpec{link: compressed}).tpm(Config{}, Config{}, nil)
	// 2/3 of the disk is zeros and the patterned blocks are regular: the
	// wire must carry far less than the logical amount.
	if meter.BytesSent() >= rep.DiskBytes/2 {
		t.Fatalf("compressed wire bytes %d vs %d logical — compression ineffective",
			meter.BytesSent(), rep.DiskBytes)
	}
}

// TestMigrationSurvivesLinkDeath injects connection failures at several
// points and requires both sides to return errors promptly — no hangs, no
// partial success reported as success.
func TestMigrationSurvivesLinkDeath(t *testing.T) {
	// Fault points land in the handshake, early disk pre-copy, mid disk
	// pre-copy, and the memory phase (the idle migration totals ~2320
	// sends, so all of these strike mid-flight).
	for _, failAfter := range []int64{1, 5, 100, 2100} {
		w := newWorld(t)
		w.connSrc = transport.NewFaultConn(w.connSrc, failAfter, 0)
		// runPair fails the test if either end hangs.
		if _, _, srcErr, dstErr := w.tpmPair(Config{}, Config{}, nil); srcErr == nil || dstErr == nil {
			t.Fatalf("failAfter=%d: source %v, destination %v: success reported over a dead link", failAfter, srcErr, dstErr)
		}
		// the source VM must still be intact and runnable
		if w.src.VM.State() != vm.Running {
			t.Fatalf("failAfter=%d: source VM state %v after failed migration", failAfter, w.src.VM.State())
		}
	}
}

// TestLinkDeathDuringPostCopy cuts the link after the destination resumed:
// the destination VM is already running; the engine must surface the error.
func TestLinkDeathDuringPostCopy(t *testing.T) {
	w := newWorld(t)
	// Keep a large dirty set for post-copy: the writes land once the single
	// disk iteration is over (a block re-dirtied during it would be skipped
	// there and the frame count below would move), so all of them ride the
	// freeze bitmap.
	buf := make([]byte, blockdev.BlockSize)
	diskDone := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		<-diskDone
		for n := 0; n < 600; n++ {
			workload.FillBlock(buf, n, 1)
			w.shadow.Submit(blockdev.Request{Op: blockdev.Write, Block: n, Domain: testDomain, Data: buf})
		}
	}()
	// Fail the source's sends a little after the resume handshake: the
	// hello + iteration + pages + control messages total ~2320, and the
	// freeze waits for all 600 dirty writes to land, so cutting at 2500
	// sends is guaranteed to strike inside the post-copy push stream.
	w.connSrc = transport.NewFaultConn(w.connSrc, 2500, 0)
	cfg := Config{OnFreeze: func() {
		<-writerDone
		w.router.Freeze()
	}, OnEvent: func(ev Event) {
		if ev.Kind == EventPhaseEnd && ev.Phase == PhaseDiskPreCopy {
			close(diskDone)
		}
	}}
	if _, _, srcErr, dstErr := w.tpmPair(cfg, Config{}, nil); srcErr == nil && dstErr == nil {
		t.Fatal("both sides reported success despite link death")
	}
}

// TestReportStorageTime covers the Table II accounting helper.
func TestReportStorageTime(t *testing.T) {
	r := metrics.Report{
		PostCopyTime: 100 * time.Millisecond,
		DiskIterations: []metrics.Iteration{
			{Duration: time.Second}, {Duration: 2 * time.Second},
		},
		MemIterations: []metrics.Iteration{{Duration: time.Hour}}, // excluded
	}
	if got := r.StorageTime(); got != 3*time.Second+100*time.Millisecond {
		t.Fatalf("StorageTime = %v", got)
	}
}

func TestVaultMarshalRoundTrip(t *testing.T) {
	v := NewVault(500)
	v.MarkSynced("alpha")
	v.MarkSynced("beta")
	v.RecordWrites(newBitmapWith(500, 10, 25))
	v.MarkSynced("beta") // beta resynced: empty set
	v.RecordWrites(newBitmapWith(500, 100, 5))

	data, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalVault(data, 500)
	if err != nil {
		t.Fatal(err)
	}
	if got.DivergentBlocks("alpha") != 30 || got.DivergentBlocks("beta") != 5 {
		t.Fatalf("divergence after round trip: alpha=%d beta=%d",
			got.DivergentBlocks("alpha"), got.DivergentBlocks("beta"))
	}
	if got.DivergentBlocks("gamma") != -1 {
		t.Fatal("phantom peer after round trip")
	}
	// deterministic wire form
	data2, _ := v.MarshalBinary()
	if string(data) != string(data2) {
		t.Fatal("marshal not deterministic")
	}
	// corruption rejected
	if _, err := UnmarshalVault(data[:8], 500); err == nil {
		t.Fatal("truncated vault accepted")
	}
	if _, err := UnmarshalVault(data[:len(data)-3], 500); err == nil {
		t.Fatal("clipped vault accepted")
	}
}

// TestUnmarshalVaultAcceptsOnlyCanonical pins the vault parser to
// MarshalBinary's own form: trailing bytes after the last peer, a repeated
// peer name, out-of-order peers and a set in the encoding MarshalBinary would
// not pick all fail. The disk is one the encoder sent dense at every density
// before it took the shorter form at every size, so the dense set is such an
// old vault's entry, and vaults do not carry across that change (WIRE.md §6).
func TestUnmarshalVaultAcceptsOnlyCanonical(t *testing.T) {
	const blocks = testBlocks
	set := newBitmapWith(blocks, 10, 1)
	runs, err := set.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dense := seedDense(set)
	if bm, err := bitmap.UnmarshalSized(dense, blocks); err != nil || !bm.Equal(set) {
		t.Fatalf("dense form of the set does not decode to it: %v", err)
	}
	type peer struct {
		name string
		set  []byte
	}
	vault := func(peers ...peer) []byte {
		out := binary.LittleEndian.AppendUint64(nil, blocks)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(peers)))
		for _, p := range peers {
			out = binary.LittleEndian.AppendUint16(out, uint16(len(p.name)))
			out = binary.LittleEndian.AppendUint32(out, uint32(len(p.set)))
			out = append(append(out, p.name...), p.set...)
		}
		return out
	}
	good := vault(peer{"alpha", runs}, peer{"beta", runs})
	if v, err := UnmarshalVault(good, blocks); err != nil || v.DivergentBlocks("beta") != 1 {
		t.Fatalf("canonical vault refused: %v", err)
	}
	for name, data := range map[string][]byte{
		"trailing byte":   append(good[:len(good):len(good)], 0),
		"repeated peer":   vault(peer{"alpha", runs}, peer{"alpha", runs}),
		"peers unordered": vault(peer{"beta", runs}, peer{"alpha", runs}),
	} {
		if _, err := UnmarshalVault(data, blocks); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := UnmarshalVault(vault(peer{"alpha", dense}), blocks); err == nil || !strings.Contains(err.Error(), "not in canonical form") {
		t.Errorf("dense set: %v, want refused as not in canonical form", err)
	}
}

// FuzzUnmarshalVault feeds arbitrary bytes to the vault parser hostd runs on
// every inbound migration: no input may panic or allocate far beyond its own
// size, and every accepted input must re-marshal to exactly itself.
func FuzzUnmarshalVault(f *testing.F) {
	const blocks = 64
	v := NewVault(blocks)
	v.MarkSynced("alpha")
	v.RecordWrites(newBitmapWith(blocks, 3, 9))
	v.MarkSynced("beta")
	seed, err := v.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(append(seed[:len(seed):len(seed)], 0))
	f.Add(seed[:12])
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := UnmarshalVault(data, blocks)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+1<<16 {
			t.Fatalf("%d-byte input allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			return
		}
		again, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, re-marshals to %x", data, again)
		}
	})
}

func TestVaultAddPeerAndRecordWriteRange(t *testing.T) {
	v := NewVault(100)
	v.MarkSynced("X")
	v.MarkSynced("X") // idempotent
	if got := v.DivergentBlocks("X"); got != 0 {
		t.Fatalf("new peer diverges by %d", got)
	}
	v.RecordWriteRange(10, 20)
	if got := v.DivergentBlocks("X"); got != 10 {
		t.Fatalf("divergence = %d", got)
	}
	if len(v.Peers()) != 1 {
		t.Fatalf("peers = %v", v.Peers())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative vault accepted")
		}
	}()
	NewVault(-1)
}
