package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"bbmig/internal/blockdev"
	"bbmig/internal/dedup"
	"bbmig/internal/transport"
	"bbmig/internal/workload"
)

// template fills a clone-fleet image: the first three quarters cycle
// through distinct template contents, the last quarter is all zeros — the
// §IV-A-2 dedup argument taken from positional to content identity.
func template(distinct int) func([]byte, int) bool {
	return func(buf []byte, n int) bool {
		workload.FillBlock(buf, n%distinct, 7)
		return n < testBlocks*3/4
	}
}

// TestDedupEquivalence migrates the same template-shaped VM with and
// without content dedup: the destination must end byte-identical, both ends
// must count the same blocks as moved by reference or zero run, and the
// dedup'd run must move at least 5x fewer wire bytes (the clone-fleet
// acceptance bar) because repeated template content ships once and the zero
// quarter as header-only zero runs.
func TestDedupEquivalence(t *testing.T) {
	run := func(cfg Config) (int64, int, int) {
		rep, res := newWorld(t, worldSpec{fill: template(16)}).tpm(cfg, cfg, nil)
		return rep.MigratedBytes, rep.DedupBlocks, res.Report.DedupBlocks
	}
	baseBytes, baseDedup, _ := run(Config{})
	if baseDedup != 0 {
		t.Fatalf("literal run reported %d dedup blocks", baseDedup)
	}
	dedupBytes, srcDedup, dstDedup := run(Config{Dedup: true})
	if srcDedup == 0 || srcDedup != dstDedup {
		t.Fatalf("dedup accounting: source %d, destination %d", srcDedup, dstDedup)
	}
	if srcDedup < testBlocks/2 {
		t.Fatalf("only %d of %d blocks travelled by reference", srcDedup, testBlocks)
	}
	if dedupBytes*5 > baseBytes {
		t.Fatalf("dedup moved %d bytes vs %d literal — less than the 5x bar", dedupBytes, baseBytes)
	}
}

// TestDedupTransferShapes runs the dedup protocol under the non-default
// transfer shapes it must compose with — extent coalescing, compression,
// and a striped bundle — requiring byte-identical convergence each time.
func TestDedupTransferShapes(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"coalesced16", Config{Dedup: true, MaxExtentBlocks: 16}},
		{"compressed", Config{Dedup: true, MaxExtentBlocks: 16, CompressLevel: -1}},
		{"striped4", Config{Dedup: true, MaxExtentBlocks: 16, Streams: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, _ := newWorld(t, worldSpec{fill: template(16), streams: tc.cfg.Streams}).tpm(tc.cfg, tc.cfg, nil)
			if rep.DedupBlocks == 0 {
				t.Fatal("no blocks travelled by reference")
			}
		})
	}
}

// TestSourceRefusesPaddedWantBitmap plays a destination whose HASH_WANT for a
// five-block advert sets a padding bit: the source refuses the reply instead
// of reading it as "want none".
func TestSourceRefusesPaddedWantBitmap(t *testing.T) {
	w := newWorld(t, worldSpec{fill: template(16)})
	w.connDst = &lyingConn{Conn: w.connDst, typ: transport.MsgHashWant, payload: []byte{dedup.WantLayout, 1 << 7}}
	cfg := Config{Dedup: true, MaxExtentBlocks: 5}
	_, _, srcErr, _ := w.tpmPair(cfg, cfg, nil)
	if srcErr == nil || !strings.Contains(srcErr.Error(), "padding bit") {
		t.Fatalf("source accepted a want bitmap with a padding bit set: %v", srcErr)
	}
}

// TestDedupUnderWorkload races a verified write workload against a dedup'd
// migration: the shadow-truth check proves reference materialization never
// writes stale or wrong bytes even while the dirty set churns.
func TestDedupUnderWorkload(t *testing.T) {
	w := newWorld(t, worldSpec{fill: template(16)})
	g := w.startGuest(workload.NewWebServer(testBlocks, 23), 200, 32, nil)
	cfg := Config{Dedup: true, MaxExtentBlocks: 8}
	src := cfg
	src.OnFreeze = g.freeze
	w.tpm(src, cfg, nil)
	g.stop()
}

// TestDedupSharedIndexAcrossMigrations is the clone-fleet scenario at engine
// level: two template siblings migrate into the same destination index, and
// the second must ride the content the first already landed.
func TestDedupSharedIndexAcrossMigrations(t *testing.T) {
	idx := dedup.NewIndex(blockdev.BlockSize)
	run := func(name string, distinct int) (int64, int) {
		cfg := Config{Dedup: true, DedupIndex: idx, DedupName: name}
		rep, _ := newWorld(t, worldSpec{fill: template(distinct)}).tpm(cfg, cfg, nil)
		return rep.MigratedBytes, rep.DedupBlocks
	}
	// Many distinct contents: the first clone seeds the index.
	firstBytes, _ := run("disk/web1", 512)
	// The sibling carries the same 512 template contents: every disk block
	// should arrive by reference against web1's landed copy. What remains
	// of the wire is dominated by the (never deduplicated) memory pages.
	secondBytes, secondRefs := run("disk/web2", 512)
	if secondRefs != testBlocks {
		t.Fatalf("sibling moved %d of %d blocks by reference", secondRefs, testBlocks)
	}
	if secondBytes*2 > firstBytes {
		t.Fatalf("sibling moved %d bytes vs first clone's %d — index not shared", secondBytes, firstBytes)
	}
}

// TestDedupZeroElision pins the no-round-trip path: an all-zero disk must
// travel as zero runs alone, with wire bytes a small fraction of capacity.
func TestDedupZeroElision(t *testing.T) {
	cfg := Config{Dedup: true, MaxExtentBlocks: 64}
	rep, _ := newWorld(t, worldSpec{fill: func([]byte, int) bool { return false }}).tpm(cfg, cfg, nil)
	if rep.DedupBlocks != testBlocks {
		t.Fatalf("%d of %d zero blocks elided", rep.DedupBlocks, testBlocks)
	}
	if capacity := int64(testBlocks) * blockdev.BlockSize; rep.MigratedBytes*4 > capacity {
		t.Fatalf("zero disk still moved %d of %d bytes", rep.MigratedBytes, capacity)
	}
}

// oldWantReply sends every HASH_WANT in the layout before the leading layout
// byte, as a destination that still expected references does.
type oldWantReply struct{ transport.Conn }

func (c oldWantReply) Send(m transport.Message) error {
	if m.Type == transport.MsgHashWant {
		m.Payload = m.Payload[1:]
	}
	return c.Conn.Send(m)
}

// oldWantSource reads every HASH_WANT as a source that predates the layout
// byte did: the payload must be the bare want-bitmap, and the parse failure
// is that source's error.
type oldWantSource struct{ transport.Conn }

func (c oldWantSource) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Type == transport.MsgHashWant {
		_, count := transport.ExtentSplit(m.Arg)
		if merr := dedup.CheckMask(m.Payload, count); merr != nil {
			return transport.Message{}, fmt.Errorf("core: want bitmap: %w", merr)
		}
	}
	return m, err
}

// TestDedupMixedPairFails pairs an end that writes at the advert with one
// that expects references, either way round: an old-layout want reply to a
// new source, and a new reply to an old-layout source. Neither can be read
// as the other, so the migration fails naming the want reply, and every
// destination block holds either its old content or the source's: a block
// written at an advert is the source's content, and none is written wrong.
func TestDedupMixedPairFails(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		link       func(s, d transport.Conn) (transport.Conn, transport.Conn)
	}{
		{"old-reply", "dedup want reply", func(s, d transport.Conn) (transport.Conn, transport.Conn) { return s, oldWantReply{d} }},
		{"old-source", "want bitmap", func(s, d transport.Conn) (transport.Conn, transport.Conn) { return oldWantSource{s}, d }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, worldSpec{fill: template(16), link: tc.link})
			cfg := Config{Dedup: true, MaxExtentBlocks: 16}
			_, _, srcErr, dstErr := w.tpmPair(cfg, cfg, nil)
			if err := errors.Join(srcErr, dstErr); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("source: %v, destination: %v; want the migration failed on the %s", srcErr, dstErr, tc.want)
			}
			src, dst := make([]byte, blockdev.BlockSize), make([]byte, blockdev.BlockSize)
			for n := 0; n < testBlocks; n++ {
				if err := errors.Join(w.srcDisk.ReadBlock(n, src), w.dstDisk.ReadBlock(n, dst)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dst, src) && !dedup.IsZero(dst) {
					t.Fatalf("block %d holds neither its old content nor the source's", n)
				}
			}
		})
	}
}

// TestWantReplyLayoutsDisjoint: for every advert size, a want reply of either
// layout is refused by the other's parse, whatever its bits.
func TestWantReplyLayoutsDisjoint(t *testing.T) {
	for count := 1; count <= 256; count++ {
		want := make([]byte, dedup.WantLen(count))
		if _, err := dedup.ParseWantReply(want, count); err == nil {
			t.Fatalf("%d blocks: an old-layout reply parses as the new layout", count)
		}
		if dedup.CheckMask(dedup.AppendWantReply(nil, want), count) == nil {
			t.Fatalf("%d blocks: a new-layout reply parses as the old layout", count)
		}
	}
}

// TestAdvertHashesOnStampedSourceOnly proves the source hashes an advert's
// content once per distinct content only where a Dedup pass reads a
// blockdev.Stamped device: a template clone's adverts hash its 16 contents
// once each from a MemDisk, and every non-zero block, as every source did
// before the memo, from a FileDisk or a bcache volume. A delta-only window
// hashes nothing.
func TestAdvertHashesOnStampedSourceOnly(t *testing.T) {
	const written = testBlocks * 3 / 4
	toFile := func(disk *blockdev.MemDisk) blockdev.Device {
		f, err := blockdev.CreateFileDisk(filepath.Join(t.TempDir(), "src.img"), disk.NumBlocks(), disk.BlockSize())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		buf := make([]byte, disk.BlockSize())
		for n := range disk.NumBlocks() {
			if err := errors.Join(disk.ReadBlock(n, buf), f.WriteBlock(n, buf)); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	dedupCfg := Config{Dedup: true, MaxExtentBlocks: 16}
	for _, tc := range []struct {
		name string
		sp   worldSpec
		cfg  Config
		want int
	}{
		{"memdisk", worldSpec{fill: template(16)}, dedupCfg, 16},
		{"filedisk", worldSpec{fill: template(16), source: toFile}, dedupCfg, written},
		{"bcache volume", worldSpec{fill: template(16), volume: true}, dedupCfg, written},
		{"delta only", worldSpec{fill: template(16)}, Config{Delta: true, MaxExtentBlocks: 16}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if rep, _ := newWorld(t, tc.sp).tpm(tc.cfg, tc.cfg, nil); rep.DedupHashes != tc.want {
				t.Errorf("%d advert hashes, want %d", rep.DedupHashes, tc.want)
			}
		})
	}
}

// sendHook calls hook with each frame the source sends, before it goes out.
type sendHook struct {
	transport.Conn
	hook func(transport.Message)
}

func (c sendHook) Send(m transport.Message) error {
	c.hook(m)
	return c.Conn.Send(m)
}

// TestDedupMemoUnderRewrites proves a source's advert fingerprints stay the
// SHA-256 of the bytes it advertises while its MemDisk is rewritten during
// pre-copy. Right after the advert of each stamp unit's first extent, the
// guest rewrites that extent's block 1, whose content the memo has just
// recorded. The image is a template clone laid out against that write: block
// 17 of the unit holds what the write will put in block 1, and block 1 holds
// the same bytes but one outside the memo's sample. Block 17 then equals
// block 1 byte for byte but is never rewritten, so nothing would send it
// again: the memo must hash it, as block 1's stamp has changed, or the
// destination ends with block 1's old content there. The destination must
// hold the shadow's image, and the memo must have served fingerprints, or
// the test proved nothing.
func TestDedupMemoUnderRewrites(t *testing.T) {
	const written, unit = testBlocks * 3 / 4, blockdev.RunBlocks
	var w *world
	var frozen atomic.Bool
	w = newWorld(t, worldSpec{
		fill: func(buf []byte, n int) bool {
			if k := n / unit; n < written && (n%unit == 1 || n%unit == 17) {
				workload.FillBlock(buf, k*unit+1, uint32(k+1)) // the shadow's (k+1)-th write to block k*unit+1
				if n%unit == 1 {
					buf[0] ^= 0xFF
				}
				return true
			}
			return template(16)(buf, n)
		},
		link: func(s, d transport.Conn) (transport.Conn, transport.Conn) {
			return sendHook{s, func(m transport.Message) {
				start, _ := transport.ExtentSplit(m.Arg)
				if m.Type != transport.MsgHashAdvert || start%unit != 0 || frozen.Load() {
					return
				}
				req := blockdev.Request{Op: blockdev.Write, Domain: testDomain, Block: start + 1, Data: make([]byte, blockdev.BlockSize)}
				if err := w.shadow.Submit(req); err != nil {
					t.Errorf("guest write: %v", err)
				}
			}}, d
		},
	})
	cfg := Config{Dedup: true, MaxExtentBlocks: 16}
	src := cfg
	src.OnFreeze = func() {
		frozen.Store(true)
		w.router.Freeze()
	}
	rep, _ := w.tpm(src, cfg, nil)
	a, b := make([]byte, blockdev.BlockSize), make([]byte, blockdev.BlockSize)
	for n := 1; n < written; n += unit {
		if err := errors.Join(w.srcDisk.ReadBlock(n, a), w.srcDisk.ReadBlock(n+16, b)); err != nil || !bytes.Equal(a, b) {
			t.Fatalf("block %d does not hold block %d's bytes after its rewrite (%v): the test proved nothing", n, n+16, err)
		}
	}
	if rep.DedupHashes == 0 || rep.DedupHashes*2 > written {
		t.Errorf("%d advert hashes for %d written blocks: the memo served nothing", rep.DedupHashes, written)
	}
}
