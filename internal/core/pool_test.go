package core

import (
	"strings"
	"testing"

	"bbmig/internal/blockdev"
	"bbmig/internal/dedup"
	"bbmig/internal/transport"
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
	transport.SetBufPoison(true)
	defer transport.SetBufPoison(false)
	cases := []struct {
		name  string
		cfg   Config
		stale bool
	}{
		{name: "per-block"},
		{name: "readahead", cfg: Config{MaxExtentBlocks: 16, Readahead: 4}},
		{name: "striped-workers", cfg: Config{Streams: 4, MaxExtentBlocks: 16, Workers: 4}},
		{name: "compressed", cfg: Config{MaxExtentBlocks: 16, CompressLevel: -1}},
		{name: "compressed-workers", cfg: Config{MaxExtentBlocks: 16, CompressLevel: -1, Workers: 4}},
		{name: "dedup", cfg: Config{Dedup: true, MaxExtentBlocks: 16}},
		{name: "dedup-striped", cfg: Config{Dedup: true, MaxExtentBlocks: 16, Streams: 4}},
		{name: "dedup-stale", cfg: Config{Dedup: true, MaxExtentBlocks: 16}, stale: true},
		{name: "delta", cfg: Config{Delta: true, MaxExtentBlocks: 16}, stale: true},
		{name: "dedup+delta", cfg: Config{Dedup: true, Delta: true, MaxExtentBlocks: 16}, stale: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			e.useStriped(tc.cfg.Streams)
			cfg := tc.cfg
			if tc.stale {
				staleDestination(t, e.srcDisk, e.dstDisk, 2)
				if cfg.Dedup {
					cfg.DedupIndex, cfg.DedupName = dedup.NewIndex(blockdev.BlockSize), "retained"
					if err := cfg.DedupIndex.RegisterSource(cfg.DedupName, e.dstDisk); err != nil {
						t.Fatal(err)
					}
					if _, err := cfg.DedupIndex.ScanSource(cfg.DedupName); err != nil {
						t.Fatal(err)
					}
				}
			}
			rep, res := e.runTPM(cfg, nil)
			e.checkConverged(res.CPU)
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
// it, which prefetch through the same walker.
func TestWireTraceReadaheadEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		frames []string // frame types the chain must actually have produced
	}{
		{"literal", Config{}, []string{"EXTENT"}},
		{"dedup", Config{Dedup: true}, []string{"HASH_ADVERT", "BLOCK_REF"}},
		{"delta", Config{Delta: true}, []string{"DELTA_PATCH"}},
		{"dedup+delta", Config{Dedup: true, Delta: true}, []string{"HASH_ADVERT", "BLOCK_REF", "DELTA_PATCH"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(readahead int) []string {
				e := newTraceEnv(t)
				// The destination starts from a stale copy — every source
				// block with its first 256 bytes rewritten — so the delta
				// encoder has near matches to patch, not just zero runs.
				staleDestination(t, e.srcDisk, e.dstDisk, 1)
				cfg := tc.cfg
				cfg.MaxExtentBlocks, cfg.Readahead = 8, readahead
				runTracedTPM(wholeDisk)(t, e, cfg, cfg)
				return append(e.connSrc.trace(), e.connDst.trace()...)
			}
			seq := run(0)
			ra := run(4)
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
