package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/dedup"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// TestDestinationFollowsSource runs each source configuration twice: against
// a destination with the zero Config — a dedup row gives it an index and
// nothing else — and against the same configuration on both ends. Both runs
// must pass the runner's checks, and the source must send the destination the
// same frames, in the same order, either way: nothing the source chose needs
// the destination's agreement.
func TestDestinationFollowsSource(t *testing.T) {
	divergent := make([]int, 0, testBlocks/4)
	for n := 0; n < testBlocks; n += 4 {
		divergent = append(divergent, n)
	}
	const raw = int64(testBlocks+testPages) * blockdev.BlockSize
	for _, row := range []struct {
		name  string
		src   Config
		index bool // the follower gets a fingerprint index
		fill  func([]byte, int) bool
		back  bool // an incremental return to a destination that rewrote a quarter of its blocks
		cut   bool // the link dies once, mid disk pre-copy
		check func(rep *metrics.Report, res *DestResult) bool
	}{
		{name: "compress6", src: Config{CompressLevel: 6},
			check: func(rep *metrics.Report, _ *DestResult) bool { return rep.MigratedBytes < raw }},
		{name: "compress1-workers2", src: Config{CompressLevel: 1, Workers: 2},
			check: func(rep *metrics.Report, _ *DestResult) bool { return rep.MigratedBytes < raw }},
		{name: "dedup", src: Config{Dedup: true}, index: true, fill: template(16),
			check: func(_ *metrics.Report, res *DestResult) bool { return res.Report.DedupBlocks > 0 }},
		{name: "delta-im", src: Config{Delta: true, MaxExtentBlocks: 16}, back: true,
			check: func(_ *metrics.Report, res *DestResult) bool { return res.Report.DeltaBlocks == len(divergent) }},
		{name: "dedup-delta-im", src: Config{Dedup: true, Delta: true, MaxExtentBlocks: 16}, index: true, back: true,
			check: func(_ *metrics.Report, res *DestResult) bool { return res.Report.DeltaBlocks > 0 }},
		{name: "resume-compress1", src: Config{MaxRetries: 2, CompressLevel: 1}, cut: true,
			check: func(rep *metrics.Report, _ *DestResult) bool { return rep.Retries == 1 && rep.MigratedBytes < raw }},
	} {
		t.Run(row.name, func(t *testing.T) {
			// run migrates a fresh world from row.src to dst and returns the
			// frames the source sent, on every connection it used.
			run := func(dst Config) []string {
				sp := worldSpec{traced: true, fill: row.fill}
				src := row.src
				var relinks []*traceConn
				if row.cut {
					inj := transport.NewInjector([]transport.Fault{{AfterSends: 600, Kind: transport.FaultCut}})
					relink := newPipeRelinker(inj)
					sp.link = func(s, d transport.Conn) (transport.Conn, transport.Conn) { return inj.Wrap(s), d }
					src.RetryBackoff = time.Millisecond
					src.Redial = func() (transport.Conn, error) {
						c, err := relink.redial()
						tc := &traceConn{inner: c}
						relinks = append(relinks, tc)
						return tc, err
					}
					dst.WaitReconnect = relink.waitReconnect
				}
				var w *world
				var initial *bitmap.Bitmap
				if row.back {
					home := newWorld(t)
					home.tpm(Config{}, Config{}, nil)
					initial = hotRewrite(t, home.dstDisk, divergent, blockdev.BlockSize/16, 7)
					w = home.reverse(sp)
				} else {
					w = newWorld(t, sp)
				}
				rep, res := w.tpm(src, dst, initial)
				if !row.check(rep, res) {
					t.Errorf("the run did not exercise %s: %+v", row.name, res.Report)
				}
				trace := w.traceSrc.trace()
				for _, tc := range relinks {
					trace = append(trace, tc.trace()...)
				}
				for i, f := range trace {
					// The session token in these two is random per run.
					if strings.HasPrefix(f, "HELLO ") || strings.HasPrefix(f, "SESSION_RESUME ") {
						trace[i], _, _ = strings.Cut(f, " fnv=")
					}
				}
				if row.src.Workers > 1 {
					slices.Sort(trace) // lanes interleave their frames; the set is what must match
				}
				return trace
			}
			var follower Config
			if row.index {
				follower.DedupIndex = dedup.NewIndex(blockdev.BlockSize)
			}
			followed, agreed := run(follower), run(row.src)
			if i := firstDiff(followed, agreed); i >= 0 {
				t.Fatalf("frame %d of %d/%d differs:\n  following destination: %s\n  agreeing destination:  %s",
					i, len(followed), len(agreed), at(followed, i), at(agreed, i))
			}
		})
	}
}

// firstDiff is the first index at which a and b differ, or -1.
func firstDiff(a, b []string) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if at(a, i) != at(b, i) {
			return i
		}
	}
	return -1
}

// at is s[i], or "(none)" past its end.
func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "(none)"
}

// TestCompressingSourceReadsRefusal: a destination's handshake refusal
// travels raw, so a source that asked for compression reads the refusal
// itself — here a geometry mismatch — not a framing error.
func TestCompressingSourceReadsRefusal(t *testing.T) {
	w := newWorld(t)
	w.dst.Backend = blkbackNew(testBlocks + 1)
	_, _, srcErr, dstErr := w.tpmPair(Config{CompressLevel: 6}, Config{}, nil)
	if dstErr == nil {
		t.Fatal("destination accepted mismatched geometry")
	}
	if srcErr == nil || !strings.Contains(srcErr.Error(), "prepared VBD") {
		t.Fatalf("source error %v, want the destination's geometry refusal", srcErr)
	}
}

// TestHelloUnknownCapabilityRefused plays a source whose HELLO carries a
// capability bit no destination knows, followed straight away by a data
// frame: the destination refuses in the handshake, answers ERROR, and its disk
// is untouched — the frame behind the HELLO never landed.
func TestHelloUnknownCapabilityRefused(t *testing.T) {
	w := newWorld(t)
	geom, err := transport.Geometry{
		BlockSize: blockdev.BlockSize, NumBlocks: testBlocks, PageSize: vm.PageSize, NumPages: testPages,
	}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, blockdev.BlockSize)
	workload.FillBlock(block, 0, 1)
	var reply transport.Message
	source := func() error {
		defer w.connSrc.Close() // a destination that took the HELLO must not wait for more
		for _, m := range []transport.Message{
			{Type: transport.MsgHello, Arg: transport.ProtocolVersion | 1<<33, Payload: geom},
			{Type: transport.MsgBlockData, Arg: 0, Payload: block},
		} {
			if err := w.connSrc.Send(m); err != nil {
				return err
			}
		}
		var err error
		reply, err = w.connSrc.Recv()
		return err
	}
	_, dstErr := w.runPair(source, func() error {
		_, err := MigrateDest(Config{}, w.dst, w.connDst)
		w.connDst.Close()
		return err
	})
	if dstErr == nil || !strings.Contains(dstErr.Error(), "capability") {
		t.Fatalf("destination error %v, want a refused capability", dstErr)
	}
	if reply.Type != transport.MsgError {
		t.Fatalf("source got %v, want ERROR", reply.Type)
	}
	if img := diskImage(t, w.dstDisk); !slices.Equal(img, make([]byte, len(img))) {
		t.Fatal("the refused migration wrote the destination disk")
	}
}
