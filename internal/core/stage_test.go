package core

import (
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/transport"
)

// expectFrames receives len(want) data frames from c under one watchdog and
// requires them to carry want's block numbers, in order: none may still be
// waiting in the sender's staging buffer.
func expectFrames(t *testing.T, c transport.Conn, want ...int) {
	t.Helper()
	watchdog := time.AfterFunc(5*time.Second, func() { c.Close() })
	defer watchdog.Stop()
	for _, n := range want {
		m, err := c.Recv()
		if err != nil {
			t.Fatalf("block %d never arrived: it waits on a Send that never comes (%v)", n, err)
		}
		if m.Type != transport.MsgBlockData || m.Arg != uint64(n) {
			t.Fatalf("got %v for %d, want BLOCK_DATA for %d", m.Type, m.Arg, n)
		}
		m.Release()
	}
}

// TestPassEndFlushesStagedFrame: a pass over a staged link that sends one
// data frame and nothing else still delivers it when the pass ends.
func TestPassEndFlushesStagedFrame(t *testing.T) {
	w := newWorld(t)
	src, dst := streamPair(t)
	defer src.Close()
	defer dst.Close()
	tr := newDiskTransfer(Config{}.withDefaults(), w.srcDisk, src, "test", "source")
	if !transport.Stage(tr.conn, transport.StageMax) {
		t.Fatal("the source does not stage over loopback TCP")
	}
	owed := bitmap.New(testBlocks)
	owed.Set(9)
	if _, _, err := tr.sendBlocks(allOf(owed), false); err != nil {
		t.Fatal(err)
	}
	expectFrames(t, dst, 9)
}

// TestPullReplyLeavesAtOnce: a pull reply served while pushed blocks sit in
// the staging buffer, far below its bound, reaches the destination together
// with them, without waiting for the next push to fill the buffer.
func TestPullReplyLeavesAtOnce(t *testing.T) {
	w := newWorld(t)
	src, dst := streamPair(t)
	defer src.Close()
	defer dst.Close()
	s := newSourceRun(Config{}, w.src, src, "TPM")
	for _, n := range []int{1, 2, 3} {
		if err := s.sendRead(bitmap.Extent{Start: n, Count: 1}, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.servePull(700); err != nil {
		t.Fatal(err)
	}
	expectFrames(t, dst, 1, 2, 3, 700)
}

// TestStagingFollowsPacerBurst: paced, the source stages no more than the
// pacer's burst, and a share that moves re-bounds it. Alone on the budget the
// burst is far above the bound and a block frame waits; once peers joining
// cut the burst below one block frame, the next frame cannot wait and leaves
// with the one staged ahead of it.
func TestStagingFollowsPacerBurst(t *testing.T) {
	b := NewRateBudget(40_000_000)
	defer b.Join()()
	w := newWorld(t)
	src, dst := streamPair(t)
	defer src.Close()
	defer dst.Close()
	tr := newDiskTransfer(Config{Budget: b}.withDefaults(), w.srcDisk, src, "test", "source")
	block := make([]byte, blockdev.BlockSize)
	send := func(n int) {
		t.Helper()
		if err := tr.send(extentMessage(bitmap.Extent{Start: n, Count: 1}, block), true); err != nil {
			t.Fatal(err)
		}
	}
	send(1)
	for range 999 {
		defer b.Join()()
	}
	send(2) // the share is 40 kB/s: its 4 kB burst holds no block frame
	expectFrames(t, dst, 1, 2)
}

// TestCompressingSourceDoesNotStage: a source that compresses leaves its
// frames unstaged — each is on the socket when its Send returns — since a
// deflated frame says nothing of the inflating its far side owes it.
func TestCompressingSourceDoesNotStage(t *testing.T) {
	w := newWorld(t)
	src, dst := streamPair(t)
	defer src.Close()
	defer dst.Close()
	tr := newDiskTransfer(Config{CompressLevel: 1}.withDefaults(), w.srcDisk, src, "test", "source")
	if err := tr.send(extentMessage(bitmap.Extent{Start: 3, Count: 1}, make([]byte, blockdev.BlockSize)), false); err != nil {
		t.Fatal(err)
	}
	expectFrames(t, dst, 3)
}
