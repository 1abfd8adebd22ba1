package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/delta"
	"bbmig/internal/metrics"
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
	if rep.DeltaBlocks != 0 || rep.DeltaRefused == 0 {
		t.Fatalf("source accounts %d blocks as delta-moved and %d refused after refusals", rep.DeltaBlocks, rep.DeltaRefused)
	}
}

// sigRewriter rewrites every chunk signature the destination sends: resign
// gets the reply's payload, a copy it may change in place, and the content of
// disk under the extent the reply answers, and returns the payload to send.
type sigRewriter struct {
	transport.Conn
	t      *testing.T
	disk   blockdev.Device
	resign func(sig, content []byte) []byte
}

func (c sigRewriter) Send(m transport.Message) error {
	if m.Type == transport.MsgDeltaSig && len(m.Payload) > 0 {
		start, count := transport.ExtentSplit(m.Arg)
		bs := c.disk.BlockSize()
		content := make([]byte, count*bs)
		for k := 0; k < count; k++ {
			if err := c.disk.ReadBlock(start+k, content[k*bs:(k+1)*bs]); err != nil {
				c.t.Error(err)
			}
		}
		m.Payload = c.resign(append([]byte(nil), m.Payload...), content)
	}
	return c.Conn.Send(m)
}

// hintStripper sends every signature request without its hint, as a source
// that predates hints does.
type hintStripper struct{ transport.Conn }

func (c hintStripper) Send(m transport.Message) error {
	if m.Type == transport.MsgDeltaSig {
		m.Payload = nil
	}
	return c.Conn.Send(m)
}

// patchCounter counts the blocks the source sends as patches.
type patchCounter struct {
	transport.Conn
	blocks *atomic.Int64
}

func (c patchCounter) Send(m transport.Message) error {
	if m.Type == transport.MsgDeltaPatch && len(m.Payload) > 0 {
		_, count := transport.ExtentSplit(m.Arg)
		c.blocks.Add(int64(count))
	}
	return c.Conn.Send(m)
}

// sigMaskLen is the size of the equal mask of a signature over contentLen
// bytes at chunk: one bit per full chunk.
func sigMaskLen(contentLen, chunk int) int {
	return (contentLen/chunk + 7) / 8
}

// divergedWorld is the hot-rewrite return trip's set-up: a TPM, then an
// in-place rewrite of the head of every fourth block on the destination. It
// returns the world and the rewritten blocks, the trip's fresh set.
func divergedWorld(t *testing.T) (*world, *bitmap.Bitmap, int) {
	w := newWorld(t)
	w.tpm(Config{}, Config{}, nil)
	divergent := make([]int, 0, testBlocks/4)
	for n := 0; n < testBlocks; n += 4 {
		divergent = append(divergent, n)
	}
	return w, hotRewrite(t, w.dstDisk, divergent, blockdev.BlockSize/16, 7), len(divergent)
}

// deltaReturnTrip runs the hot-rewrite return trip with delta on, every
// signature the destination sends passed through resign with the content of
// the trip's source disk (ofSource) or of its destination disk, and returns
// the source's report and the blocks it sent as patches. The trip must
// converge: both disks end byte-identical.
func deltaReturnTrip(t *testing.T, resign func(sig, content []byte) []byte, ofSource bool) (*metrics.Report, int) {
	w, fresh, divergent := divergedWorld(t)
	var patched atomic.Int64
	signed := w.srcDisk // the return trip's destination
	if ofSource {
		signed = w.dstDisk
	}
	back := w.reverse(worldSpec{link: func(s, d transport.Conn) (transport.Conn, transport.Conn) {
		return patchCounter{s, &patched}, sigRewriter{d, t, signed, resign}
	}})
	cfg := Config{Delta: true, MaxExtentBlocks: 16}
	rep, _ := back.tpm(cfg, cfg, fresh)
	if !bytes.Equal(diskImage(t, w.srcDisk), diskImage(t, w.dstDisk)) {
		t.Fatal("the return trip left the disks different")
	}
	if sent := rep.DeltaBlocks + rep.DeltaRefused + rep.DeltaDeclined; sent != divergent {
		t.Fatalf("delta accounts for %d blocks (%d patched, %d refused, %d declined), want the %d divergent",
			sent, rep.DeltaBlocks, rep.DeltaRefused, rep.DeltaDeclined, divergent)
	}
	return rep, int(patched.Load())
}

// TestDeltaForgedSignatureRefused is the collision a crafted guest could
// build: every chunk record the destination sends describes the source's new
// content, not the destination's, so every patch is one COPY naming old
// chunks that do not hold those bytes. The SHA-256 trailer refuses each one,
// every refused extent goes again literally, and the source counts them.
func TestDeltaForgedSignatureRefused(t *testing.T) {
	forge := func(sig, content []byte) []byte {
		chunk := int(binary.LittleEndian.Uint32(sig))
		mask, full := sig[delta.SigHeaderLen:], len(content)/chunk
		honest := delta.AppendSig(nil, content, chunk, nil) // every chunk recorded, in order
		honest = honest[delta.SigHeaderLen+sigMaskLen(len(content), chunk):]
		rec := mask[sigMaskLen(len(content), chunk):]
		for i := 0; i*chunk < len(content); i++ {
			if i >= full || mask[i/8]&(1<<(i%8)) == 0 {
				rec = rec[copy(rec, honest[i*delta.RecordLen:][:delta.RecordLen]):]
			}
		}
		return sig
	}
	rep, patched := deltaReturnTrip(t, forge, true)
	if patched == 0 || rep.DeltaRefused != patched || rep.DeltaBlocks != 0 {
		t.Fatalf("%d blocks sent as patches, %d refused, %d landed as patches; want every patch refused",
			patched, rep.DeltaRefused, rep.DeltaBlocks)
	}
}

// TestDeltaAllEqualRefused is a destination whose reply marks every full
// chunk equal, whatever the hint said: every patch is one COPY of the stale
// extent, the trailer refuses each one, and each goes again literally.
func TestDeltaAllEqualRefused(t *testing.T) {
	allEqual := func(sig, content []byte) []byte {
		chunk := int(binary.LittleEndian.Uint32(sig))
		full := len(content) / chunk
		out := append(sig[:delta.SigHeaderLen:delta.SigHeaderLen], make([]byte, sigMaskLen(len(content), chunk))...)
		for i := 0; i < full; i++ {
			out[delta.SigHeaderLen+i/8] |= 1 << (i % 8)
		}
		if tail := content[full*chunk:]; len(tail) > 0 { // a short chunk is always recorded
			out = append(out, delta.AppendSig(nil, tail, chunk, nil)[delta.SigHeaderLen:]...)
		}
		return out
	}
	rep, patched := deltaReturnTrip(t, allEqual, false)
	if patched == 0 || rep.DeltaRefused != patched || rep.DeltaBlocks != 0 {
		t.Fatalf("%d blocks sent as patches, %d refused, %d landed as patches; want every patch refused",
			patched, rep.DeltaRefused, rep.DeltaBlocks)
	}
}

// TestDeltaSHA256SignerFallsBack is a mixed-version pair: the destination
// hashes with the truncated SHA-256 strong hash the codec used before
// CRC-32C ‖ CRC-32, so none of its units matches the hint (no chunk is marked
// equal) and none of its chunk records matches either. No patch is sent:
// every extent is declined to a literal and the disks still end identical.
func TestDeltaSHA256SignerFallsBack(t *testing.T) {
	sha := func(sig, content []byte) []byte {
		chunk := int(binary.LittleEndian.Uint32(sig))
		out := delta.AppendSig(nil, content, chunk, nil) // nothing marked, every chunk recorded
		rec := out[delta.SigHeaderLen+sigMaskLen(len(content), chunk):]
		for off := 0; off < len(content); off += chunk {
			sum := sha256.Sum256(content[off:min(off+chunk, len(content))])
			copy(rec[4:], sum[:8]) // the record is weak(4) | strong(8)
			rec = rec[delta.RecordLen:]
		}
		return out
	}
	rep, patched := deltaReturnTrip(t, sha, false)
	if patched != 0 || rep.DeltaBlocks != 0 || rep.DeltaRefused != 0 {
		t.Fatalf("%d blocks sent as patches, %d landed, %d refused; want none", patched, rep.DeltaBlocks, rep.DeltaRefused)
	}
}

// TestDeltaMixedPairFails pairs a hinting end with one that predates hints,
// either way round: a source that sends no hint, and a destination that
// replies in the layout without the equal mask. Neither can be read as the
// other, so the migration fails, naming the delta signature, before any
// block of the first extent is written: every rewritten block on the trip's
// destination still holds its stale content.
func TestDeltaMixedPairFails(t *testing.T) {
	oldLayout := func(sig, content []byte) []byte {
		chunk := int(binary.LittleEndian.Uint32(sig))
		unhinted := delta.AppendSig(nil, content, chunk, nil)
		return append(unhinted[:delta.SigHeaderLen], unhinted[delta.SigHeaderLen+sigMaskLen(len(content), chunk):]...)
	}
	cases := []struct {
		name string
		link func(w *world) func(s, d transport.Conn) (transport.Conn, transport.Conn)
	}{
		{"no-hint", func(*world) func(s, d transport.Conn) (transport.Conn, transport.Conn) {
			return func(s, d transport.Conn) (transport.Conn, transport.Conn) { return hintStripper{s}, d }
		}},
		{"old-reply", func(w *world) func(s, d transport.Conn) (transport.Conn, transport.Conn) {
			return func(s, d transport.Conn) (transport.Conn, transport.Conn) {
				return s, sigRewriter{d, t, w.srcDisk, oldLayout}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, fresh, _ := divergedWorld(t)
			cfg := Config{Delta: true, MaxExtentBlocks: 16}
			_, _, srcErr, dstErr := w.reverse(worldSpec{link: tc.link(w)}).tpmPair(cfg, cfg, fresh)
			if err := errors.Join(srcErr, dstErr); err == nil || !strings.Contains(err.Error(), "delta signature") {
				t.Fatalf("source: %v, destination: %v; want the migration failed on the delta signature", srcErr, dstErr)
			}
			stale, rewritten := make([]byte, blockdev.BlockSize), make([]byte, blockdev.BlockSize)
			fresh.ForEachSet(func(n int) bool {
				if err := errors.Join(w.srcDisk.ReadBlock(n, stale), w.dstDisk.ReadBlock(n, rewritten)); err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(stale, rewritten) {
					t.Fatalf("block %d was written before the migration failed", n)
				}
				return true
			})
		})
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
