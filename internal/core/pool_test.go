package core

import (
	"strings"
	"testing"

	"bbmig/internal/blockdev"
	"bbmig/internal/transport"
)

// TestPoisonedPoolMigrations runs full migrations with the buffer pool's
// use-after-release poison mode armed: every released payload is scribbled
// over before it can be recycled, so any path that touches a buffer after
// handing it back — applier, dedup observer, replay queue, compression
// stage — corrupts data deterministically and fails the convergence check.
// The matrix covers every composition the release discipline threads
// through: readahead prefetch, striped multi-stream with scatter workers,
// negotiated compression, and content dedup. Run with -race, the striped
// rows double as the concurrent send/recv pool-recycling race test.
func TestPoisonedPoolMigrations(t *testing.T) {
	transport.SetBufPoison(true)
	defer transport.SetBufPoison(false)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"per-block", Config{}},
		{"readahead", Config{MaxExtentBlocks: 16, Readahead: 4}},
		{"striped-workers", Config{Streams: 4, MaxExtentBlocks: 16, Workers: 4}},
		{"compressed", Config{MaxExtentBlocks: 16, CompressLevel: -1}},
		{"compressed-workers", Config{MaxExtentBlocks: 16, CompressLevel: -1, Workers: 4}},
		{"dedup", Config{Dedup: true, MaxExtentBlocks: 16}},
		{"dedup-striped", Config{Dedup: true, MaxExtentBlocks: 16, Streams: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			e.useStriped(tc.cfg.Streams)
			_, res := e.runTPM(tc.cfg, nil)
			e.checkConverged(res.CPU)
		})
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
				buf := make([]byte, blockdev.BlockSize)
				for n := 0; n < testBlocks; n += 3 {
					if err := e.srcDisk.ReadBlock(n, buf); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 256; i++ {
						buf[i] ^= 0x5a
					}
					if err := e.dstDisk.WriteBlock(n, buf); err != nil {
						t.Fatal(err)
					}
				}
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
