package sim

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/core"
	"bbmig/internal/dedup"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// findRow picks the (hotPct, label) row out of a WANSweep result.
func findRow(t *testing.T, rows []WANSweepRow, hotPct int, label string) WANSweepRow {
	t.Helper()
	for _, r := range rows {
		if r.HotPct == hotPct && r.Label == label {
			return r
		}
	}
	t.Fatalf("no row for %d%% / %q", hotPct, label)
	return WANSweepRow{}
}

// TestWANSweepDeltaBar pins the ISSUE acceptance: across the whole
// 11-35% hot-rewrite sweep, the dedup+delta arm ships at least 3x fewer
// return-trip wire bytes than dedup alone, and at least 3x fewer than
// literal transfer.
func TestWANSweepDeltaBar(t *testing.T) {
	rows, table := WANSweep(7)
	if len(rows) != 3*len(wanHotShares) {
		t.Fatalf("expected %d rows, got %d", 3*len(wanHotShares), len(rows))
	}
	for _, hot := range wanHotShares {
		lit := findRow(t, rows, hot, "literal")
		ded := findRow(t, rows, hot, "dedup only")
		del := findRow(t, rows, hot, "dedup + delta")
		if del.ReturnWireMB*3 > ded.ReturnWireMB {
			t.Errorf("%d%%: delta arm %0.f MB not 3x under dedup-only %0.f MB",
				hot, del.ReturnWireMB, ded.ReturnWireMB)
		}
		if del.ReturnWireMB*3 > lit.ReturnWireMB {
			t.Errorf("%d%%: delta arm %0.f MB not 3x under literal %0.f MB",
				hot, del.ReturnWireMB, lit.ReturnWireMB)
		}
		if del.DeltaBlocks == 0 {
			t.Errorf("%d%%: delta arm patched no blocks", hot)
		}
		if lit.DeltaBlocks != 0 || ded.DeltaBlocks != 0 {
			t.Errorf("%d%%: non-delta arms report patched blocks", hot)
		}
		// The trip home must also get faster, not just thinner.
		if del.TripTime >= ded.TripTime {
			t.Errorf("%d%%: delta trip %v not faster than dedup-only %v",
				hot, del.TripTime, ded.TripTime)
		}
	}
	if len(table.Rows) != len(rows) {
		t.Fatalf("table rows %d != sweep rows %d", len(table.Rows), len(rows))
	}
}

// TestWANSweepMonotone checks the sweep behaves like a model should:
// more rewrites cost more wire in every arm, and the reduction stays
// roughly stable because the per-block win is share-independent.
func TestWANSweepMonotone(t *testing.T) {
	rows, _ := WANSweep(7)
	for _, label := range []string{"literal", "dedup only", "dedup + delta"} {
		prev := 0.0
		for _, hot := range wanHotShares {
			r := findRow(t, rows, hot, label)
			if r.ReturnWireMB <= prev {
				t.Errorf("%s: wire not increasing at %d%% (%.0f <= %.0f MB)",
					label, hot, r.ReturnWireMB, prev)
			}
			prev = r.ReturnWireMB
		}
	}
}

// TestSimDeltaColdFallback: delta against a destination that matches no
// chunks (DeltaMatchShare 0) must fall back to literal-plus-signature —
// strictly worse than plain literal, never silently cheaper.
func TestSimDeltaColdFallback(t *testing.T) {
	p := Defaults(workload.Web)
	p.DiskMB = 512
	p.MemMB = 64
	p.Seed = 3
	p.DwellAfter = time.Minute

	lit := RunTPM(p)
	p.Delta = true
	p.DeltaMatchShare = 0
	cold := RunTPM(p)
	if cold.Report.DeltaBlocks != 0 {
		t.Fatalf("cold delta run claims %d patched blocks", cold.Report.DeltaBlocks)
	}
	if cold.Report.MigratedBytes <= lit.Report.MigratedBytes {
		t.Fatalf("cold delta run (%d B) should pay signature overhead over literal (%d B)",
			cold.Report.MigratedBytes, lit.Report.MigratedBytes)
	}
}

// deltaTap adds up the wire bytes of the delta frames one end sends: the
// signature exchange and the patches.
type deltaTap struct {
	transport.Conn
	bytes *atomic.Int64
}

func (c deltaTap) Send(m transport.Message) error {
	if m.Type == transport.MsgDeltaSig || m.Type == transport.MsgDeltaPatch {
		c.bytes.Add(int64(m.FrameSize()))
	}
	return c.Conn.Send(m)
}

// TestDeltaPricingMatchesEngine holds the model's per-block delta bytes —
// signature exchange, patch overhead and changed bytes — to within 10 % of
// what the engine sends on the shape the model assumes: a home host holding
// the stale image, and every diverged block rewritten in its first 256 bytes,
// carried back by IM at 16-block extents.
func TestDeltaPricingMatchesEngine(t *testing.T) {
	const blocks, hot, head, extent = 512, 256, 256, 16
	stale := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	fresh := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	buf, rewrite := make([]byte, blockdev.BlockSize), make([]byte, blockdev.BlockSize)
	for n := 0; n < blocks; n++ {
		workload.FillBlock(buf, n, 7)
		if err := stale.WriteBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if n < hot {
			workload.FillBlock(rewrite, n+blocks, 13)
			copy(buf[:head], rewrite)
		}
		if err := fresh.WriteBlock(n, buf); err != nil {
			t.Fatal(err)
		}
	}
	divergent := bitmap.New(blocks)
	divergent.SetRange(0, hot)
	guest := vm.New("g", 1, 64, 256)
	src := core.Host{VM: guest, Backend: blkback.NewBackend(fresh, 1)}
	dst := core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(stale, 1)}
	var sent atomic.Int64
	cs, cd := transport.NewPipe(256)
	defer cs.Close()
	defer cd.Close()
	cs, cd = deltaTap{cs, &sent}, deltaTap{cd, &sent}
	cfg := core.Config{Delta: true, MaxExtentBlocks: extent}
	errs := make(chan error, 1)
	go func() {
		_, err := core.MigrateDest(cfg, dst, cd)
		errs <- err
	}()
	rep, err := core.MigrateSource(cfg, src, cs, divergent)
	if err = errors.Join(err, <-errs); err != nil {
		t.Fatal(err)
	}
	if rep.DeltaBlocks != hot {
		t.Fatalf("the engine patched %d of %d blocks", rep.DeltaBlocks, hot)
	}
	engine := float64(sent.Load()) / hot

	p := Params{Delta: true, DeltaMatchShare: 1 - float64(head)/blockdev.BlockSize, MaxExtentBlocks: extent}
	perLiteral := blockdev.BlockSize + float64(frameOverhead)/extent
	model, patched := iter1Wire(p, hot, 0, perLiteral)
	if !patched {
		t.Fatal("the model sent the rewrites literally")
	}
	t.Logf("a patched block: %.1f B modelled, %.1f B sent", model/hot, engine)
	if perBlock := model / hot; math.Abs(perBlock-engine) > 0.1*engine {
		t.Errorf("the model prices a patched block at %.1f B, the engine sends %.1f B", perBlock, engine)
	}
}

// dedupTap adds up the wire bytes of the dedup frames one end sends: adverts,
// want replies, and any reference frame.
type dedupTap struct {
	transport.Conn
	bytes *atomic.Int64
}

func (c dedupTap) Send(m transport.Message) error {
	switch m.Type {
	case transport.MsgHashAdvert, transport.MsgHashWant, transport.MsgBlockRef:
		c.bytes.Add(int64(m.FrameSize()))
	}
	return c.Conn.Send(m)
}

// TestDedupPricingMatchesEngine holds the model's per-block dedup bytes to
// what the engine sends on the clone shape: a template image migrated by TPM
// at 64-block extents to a destination whose index knows a sibling, so every
// block is written at its advert. Every extent is full and holds content, so
// the two agree to the byte.
func TestDedupPricingMatchesEngine(t *testing.T) {
	const blocks, extent = 512, 64
	image := func() *blockdev.MemDisk {
		disk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
		buf := make([]byte, blockdev.BlockSize)
		for n := 0; n < blocks; n++ {
			workload.FillBlock(buf, n%128, 5)
			if err := disk.WriteBlock(n, buf); err != nil {
				t.Fatal(err)
			}
		}
		return disk
	}
	idx := dedup.NewIndex(blockdev.BlockSize)
	if err := idx.RegisterSource("sibling", image()); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.ScanSource("sibling"); err != nil {
		t.Fatal(err)
	}
	guest := vm.New("g", 1, 64, 256)
	src := core.Host{VM: guest, Backend: blkback.NewBackend(image(), 1)}
	dst := core.Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(blockdev.NewMemDisk(blocks, blockdev.BlockSize), 1)}
	var sent atomic.Int64
	cs, cd := transport.NewPipe(256)
	defer cs.Close()
	defer cd.Close()
	cs, cd = dedupTap{cs, &sent}, dedupTap{cd, &sent}
	cfg := core.Config{Dedup: true, MaxExtentBlocks: extent}
	dstCfg := cfg
	dstCfg.DedupIndex = idx
	errs := make(chan error, 1)
	go func() {
		_, err := core.MigrateDest(dstCfg, dst, cd)
		errs <- err
	}()
	rep, err := core.MigrateSource(cfg, src, cs, nil)
	if err = errors.Join(err, <-errs); err != nil {
		t.Fatal(err)
	}
	if rep.DedupBlocks != blocks {
		t.Fatalf("the engine wrote %d of %d blocks at their advert", rep.DedupBlocks, blocks)
	}
	model, _ := iter1Wire(Params{Dedup: true, MaxExtentBlocks: extent}, blocks, blocks, blockdev.BlockSize)
	if int64(math.Round(model)) != sent.Load() {
		t.Errorf("the model prices the clone's dedup exchange at %.1f B, the engine sends %d B", model, sent.Load())
	}
}
