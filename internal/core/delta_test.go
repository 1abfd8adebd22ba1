package core

import (
	"bytes"
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/transport"
	"bbmig/internal/workload"
)

// hotRewrite diverges the destination disk the way a warm workload does:
// each listed block keeps most of its content and gets a small in-place
// rewrite — the divergence shape exact-match dedup cannot exploit and delta
// encoding exists for. rewriteLen bytes at the block head change; the rest
// survives. It returns the rewritten blocks as a set.
func hotRewrite(t *testing.T, disk *blockdev.MemDisk, blocks []int, rewriteLen int, salt uint32) *bitmap.Bitmap {
	t.Helper()
	fresh := bitmap.New(disk.NumBlocks())
	buf := make([]byte, blockdev.BlockSize)
	patch := make([]byte, blockdev.BlockSize)
	for _, n := range blocks {
		if err := disk.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		workload.FillBlock(patch, n+50000, salt)
		copy(buf[:rewriteLen], patch)
		if err := disk.WriteBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		fresh.Set(n)
	}
	return fresh
}

// TestDeltaTPMConvergence runs delta-negotiated primary migrations under
// the transfer shapes delta must compose with — coalescing, compression, a
// striped bundle, and content dedup — requiring byte-identical convergence
// each time. The fresh destination is the cold-signature case: every
// signature summarizes zeros, so filled extents fall back to literals while
// the source's zero runs ride near-empty patches.
func TestDeltaTPMConvergence(t *testing.T) {
	cases := []struct {
		name        string
		cfg         Config
		wantPatches bool
	}{
		{"coalesced16", Config{Delta: true, MaxExtentBlocks: 16}, true},
		{"compressed", Config{Delta: true, MaxExtentBlocks: 16, CompressLevel: -1}, true},
		{"striped4", Config{Delta: true, MaxExtentBlocks: 16, Streams: 4}, true},
		// With dedup also on, a cold primary migration has nothing for delta
		// to win: zero runs are elided as references first and filled blocks
		// against a cold destination fall back to literals — the composition
		// must still converge. (The IM test exercises the composed win.)
		{"with-dedup", Config{Delta: true, Dedup: true, MaxExtentBlocks: 16}, false},
		{"chunk512", Config{Delta: true, MaxExtentBlocks: 16, DeltaChunk: 512}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, res := newWorld(t, worldSpec{streams: tc.cfg.Streams}).tpm(tc.cfg, tc.cfg, nil)
			if tc.wantPatches && rep.DeltaBlocks == 0 {
				t.Fatal("no blocks travelled as patches")
			}
			if rep.DeltaBlocks != res.Report.DeltaBlocks {
				t.Fatalf("delta accounting: source %d, destination %d", rep.DeltaBlocks, res.Report.DeltaBlocks)
			}
		})
	}
}

// TestDeltaEquivalenceIM is the headline Table II scenario: after a primary
// migration, the destination rewrites a hot fraction of its blocks in place
// and migrates back incrementally. With delta negotiated the return trip
// must land the identical disk while moving several times fewer disk-phase
// wire bytes than the literal run — the hot rewrites travel as patches
// covering only the chunks that changed.
func TestDeltaEquivalenceIM(t *testing.T) {
	// ~25% of the disk, rewritten over the first 1/16th of each block.
	divergent := make([]int, 0, testBlocks/4)
	for n := 0; n < testBlocks; n += 4 {
		divergent = append(divergent, n)
	}
	run := func(backCfg Config) (diskWire int64, img []byte, srcPatched, dstPatched int) {
		w := newWorld(t)
		w.tpm(Config{}, Config{}, nil)
		fresh := hotRewrite(t, w.dstDisk, divergent, blockdev.BlockSize/16, 7)
		rep, res := w.reverse(worldSpec{}).tpm(backCfg, backCfg, fresh)
		for _, it := range rep.DiskIterations {
			diskWire += it.Bytes
		}
		return diskWire, diskImage(t, w.srcDisk), rep.DeltaBlocks, res.Report.DeltaBlocks
	}
	litWire, litImg, litPatched, _ := run(Config{MaxExtentBlocks: 16})
	if litPatched != 0 {
		t.Fatalf("literal run reported %d delta blocks", litPatched)
	}
	deltaWire, deltaImg, srcPatched, dstPatched := run(Config{Delta: true, MaxExtentBlocks: 16})
	if !bytes.Equal(litImg, deltaImg) {
		t.Fatal("delta-on and delta-off runs produced different disks")
	}
	if srcPatched != len(divergent) || srcPatched != dstPatched {
		t.Fatalf("patched %d (src) / %d (dst) of %d divergent blocks", srcPatched, dstPatched, len(divergent))
	}
	if deltaWire*3 > litWire {
		t.Fatalf("delta return trip moved %d disk bytes vs %d literal — less than the 3x bar", deltaWire, litWire)
	}
	// Composed with dedup: the hot rewrites are content the stale peer
	// cannot claim, so the want-bitmap routes them into the delta path and
	// the same 3x bar must hold.
	bothWire, bothImg, bothPatched, _ := run(Config{Delta: true, Dedup: true, MaxExtentBlocks: 16})
	if !bytes.Equal(litImg, bothImg) {
		t.Fatal("dedup+delta run produced a different disk")
	}
	if bothPatched == 0 {
		t.Fatal("dedup+delta return trip shipped no patches")
	}
	if bothWire*3 > litWire {
		t.Fatalf("dedup+delta return trip moved %d disk bytes vs %d literal — less than the 3x bar", bothWire, litWire)
	}
}

// patchCorruptor flips one payload byte of every outbound patch,
// manufacturing the verify-on-apply failure deterministically.
type patchCorruptor struct{ transport.Conn }

func (c patchCorruptor) Send(m transport.Message) error {
	if m.Type == transport.MsgDeltaPatch && len(m.Payload) > 0 {
		p := append([]byte(nil), m.Payload...)
		p[len(p)/2] ^= 0xff
		m.Payload = p
	}
	return c.Conn.Send(m)
}

// TestDeltaMismatchDegrades pins the verify-on-apply contract: when every
// patch arrives corrupted, the destination refuses each one and the source
// re-sends the content literally — the migration still converges
// byte-identically and zero blocks are accounted as delta-moved.
func TestDeltaMismatchDegrades(t *testing.T) {
	w := newWorld(t)
	w.connSrc = patchCorruptor{w.connSrc}
	cfg := Config{Delta: true, MaxExtentBlocks: 16}
	rep, res := w.tpm(cfg, cfg, nil)
	if res.Report.DeltaBlocks != 0 {
		t.Fatalf("destination applied %d corrupted patches", res.Report.DeltaBlocks)
	}
	if rep.DeltaBlocks != 0 {
		t.Fatalf("source still accounts %d blocks as delta-moved after refusals", rep.DeltaBlocks)
	}
}

// TestDeltaUnderWorkload races a verified write workload against a
// delta-negotiated migration: the shadow-truth check proves patch
// application never writes stale or wrong bytes while the dirty set churns
// under the signature round trips.
func TestDeltaUnderWorkload(t *testing.T) {
	w := newWorld(t)
	g := w.startGuest(workload.NewWebServer(testBlocks, 23), 200, 32, nil)
	cfg := Config{Delta: true, MaxExtentBlocks: 8}
	src := cfg
	src.OnFreeze = g.freeze
	w.tpm(src, cfg, nil)
	g.stop()
}

// TestDeltaWANFlakyResume is the end-to-end WAN scenario the layer exists
// for: an incremental return trip over a latency- and bandwidth-shaped link
// with compression negotiated, delta on, and the link cut mid-transfer. The
// source must reconnect, resume the interrupted phase, and land a disk
// byte-identical to the sender's freeze-time content.
func TestDeltaWANFlakyResume(t *testing.T) {
	w := newWorld(t)
	w.tpm(Config{}, Config{}, nil)
	divergent := make([]int, 0, testBlocks/4)
	for n := 0; n < testBlocks; n += 4 {
		divergent = append(divergent, n)
	}
	fresh := hotRewrite(t, w.dstDisk, divergent, blockdev.BlockSize/16, 9)

	// WAN shape: per-frame stall plus serialization at an asymmetric rate
	// (the return direction is the slow uplink). Stalls are kept far below
	// the real 50-200 ms RTT so the round-trip-heavy delta path stays
	// testable; the shape — every sig request pays a round trip — is the
	// same.
	wan := func(c transport.Conn) transport.Conn {
		return transport.NewWAN(c, 200*time.Microsecond, 64<<20)
	}
	inj := transport.NewInjector([]transport.Fault{{AfterSends: 40, Kind: transport.FaultCut}})
	relink := newPipeRelinker(inj)
	back := w.reverse(worldSpec{link: func(src, dst transport.Conn) (transport.Conn, transport.Conn) {
		return inj.Wrap(wan(src)), wan(dst)
	}})
	cfg := Config{Delta: true, CompressLevel: -1, MaxExtentBlocks: 16}
	srcCfg, dstCfg := cfg, cfg
	srcCfg.MaxRetries, srcCfg.RetryBackoff = 5, time.Millisecond
	srcCfg.Redial = func() (transport.Conn, error) {
		c, err := relink.redial()
		if err != nil {
			return nil, err
		}
		return wan(c), nil
	}
	dstCfg.WaitReconnect = relink.waitReconnect
	if rep, _ := back.tpm(srcCfg, dstCfg, fresh); rep.Retries != 1 {
		t.Fatalf("source survived %d retries, want 1", rep.Retries)
	}
}
