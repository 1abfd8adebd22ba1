package core

import (
	"sync"
	"testing"
	"time"

	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/dedup"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/workload"
)

// The probe window under a cut at every frame. The world is small enough to
// cut after each frame either end sends: 64 blocks whose first three quarters
// repeat a 16-block template and whose last quarter is zero, moved at 4
// blocks per extent with Dedup and Delta set, to a destination holding the
// first half stale — each block rewritten in its first 256 bytes — so one
// pass takes every path of the window: blocks written at their advert,
// repeats a cold index learns, patches, declined patches and zero runs.

const cutBlocks = 64

// cutTemplate is the source image of the cut world.
func cutTemplate(buf []byte, n int) bool {
	workload.FillBlock(buf, n%16, 3)
	return n < cutBlocks*3/4
}

// writeCount is a destination disk that counts the writes of each block.
type writeCount struct {
	blockdev.Device
	mu     sync.Mutex
	writes [cutBlocks]int
}

func (c *writeCount) WriteBlock(n int, src []byte) error {
	c.mu.Lock()
	c.writes[n]++
	c.mu.Unlock()
	return c.Device.WriteBlock(n, src)
}

// cutRun migrates a fresh cut world with fault armed on the source's first
// connection and reconnects as often as it takes. Warm, the destination's
// index knows a sibling holding half the template. The run must converge
// (runPair checks the image), and an idle guest's one disk iteration must
// write every block exactly once: a block the destination already landed
// is never owed again. It returns the source's report.
func cutRun(t *testing.T, warm bool, fault transport.Fault) *metrics.Report {
	t.Helper()
	w := newWorld(t, worldSpec{blocks: cutBlocks, fill: cutTemplate})
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < cutBlocks/2; n++ {
		cutTemplate(buf, n)
		buf[0] ^= 0x5a
		if err := w.dstDisk.WriteBlock(n, buf); err != nil {
			t.Fatal(err)
		}
	}
	disk := &writeCount{Device: w.dstDisk}
	w.dst.Backend = blkback.NewBackend(disk, testDomain)
	cfg := Config{Dedup: true, Delta: true, MaxExtentBlocks: 4}
	src, dst := cfg, cfg
	if warm {
		sibling := blockdev.NewMemDisk(16, blockdev.BlockSize)
		for n := 0; n < 16; n += 2 {
			cutTemplate(buf, n)
			if err := sibling.WriteBlock(n, buf); err != nil {
				t.Fatal(err)
			}
		}
		dst.DedupIndex = dedup.NewIndex(blockdev.BlockSize)
		if err := dst.DedupIndex.RegisterSource("sibling", sibling); err != nil {
			t.Fatal(err)
		}
		if _, err := dst.DedupIndex.ScanSource("sibling"); err != nil {
			t.Fatal(err)
		}
	}
	inj := transport.NewInjector([]transport.Fault{fault})
	relink := newPipeRelinker(inj)
	w.connSrc = inj.Wrap(w.connSrc)
	src.MaxRetries, src.RetryBackoff, src.Redial = 5, time.Millisecond, relink.redial
	dst.WaitReconnect = relink.waitReconnect
	rep, _ := w.tpm(src, dst, nil)
	for n, k := range disk.writes {
		if k != 1 {
			t.Fatalf("cut %+v: block %d written %d times, want once", fault, n, k)
		}
	}
	return rep
}

// TestWindowCutAtEveryFrame cuts the cut world after every frame the source
// sends and after every frame the destination sends (the source's receives),
// warm and cold, until a cut lands past the migration's last frame.
func TestWindowCutAtEveryFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("hundreds of migrations")
	}
	for _, warm := range []bool{false, true} {
		for _, recv := range []bool{false, true} {
			cuts := 0
			for k := int64(1); ; k++ {
				fault := transport.Fault{AfterSends: k, Kind: transport.FaultCut}
				if recv {
					fault = transport.Fault{AfterRecvs: k, Kind: transport.FaultCut}
				}
				if cutRun(t, warm, fault).Retries == 0 {
					break
				}
				cuts++
			}
			t.Logf("warm %v, receive side %v: %d cuts survived", warm, recv, cuts)
		}
	}
}

// TestWindowLearnsRepeats: an advert naming content an outstanding advert
// names waits until that content has landed, as a patch or a literal, so a
// cold index still learns what repeats inside the window. In the cut world
// the first 16 blocks travel as patches and their 32 repeats land at their
// advert, beside the 16 zero blocks.
func TestWindowLearnsRepeats(t *testing.T) {
	rep := cutRun(t, false, transport.Fault{AfterSends: 1 << 30, Kind: transport.FaultCut})
	if rep.DeltaBlocks != 16 || rep.DedupBlocks != 48 {
		t.Fatalf("%d blocks patched and %d written at an advert or zero, want 16 and 48", rep.DeltaBlocks, rep.DedupBlocks)
	}
}
