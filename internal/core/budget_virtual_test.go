//go:build goexperiment.synctest

package core

import (
	"testing"
	"testing/synctest"
	"time"
)

// The pacer's timing, asserted in a synctest bubble, where time.Sleep and
// time.Now are virtual: a wait costs no wall time and is measured exactly.

// TestPacerVirtualThroughput: 100 frames of 64 KiB at 1 MiB/s take 6.25 s
// less the bucket the pacer starts with.
func TestPacerVirtualThroughput(t *testing.T) {
	synctest.Run(func() {
		p := NewPacer(func() int64 { return 1 << 20 })
		start := time.Now()
		for i := 0; i < 100; i++ {
			p.Wait(1 << 16)
		}
		if elapsed := time.Since(start); elapsed < 5*time.Second || elapsed > 7*time.Second {
			t.Errorf("6.25 MiB at 1 MiB/s took %v of virtual time, want ~6.2s", elapsed)
		}
	})
}

// TestPacerVirtualLargeWait: a frame fifty times the bucket drains it in
// bucket-sized chunks.
func TestPacerVirtualLargeWait(t *testing.T) {
	synctest.Run(func() {
		p := NewPacer(func() int64 { return 1000 }) // 100 B bucket
		start := time.Now()
		p.Wait(5000)
		if got := time.Since(start); got < 4*time.Second || got > 6*time.Second {
			t.Errorf("Wait(5000) at 1000 B/s took %v, want ~4.9s", got)
		}
	})
}

// TestPacerVirtualRetune: a rate source that moves tenfold retunes the pacer
// on its next frame.
func TestPacerVirtualRetune(t *testing.T) {
	synctest.Run(func() {
		rate := int64(1000)
		p := NewPacer(func() int64 { return rate })
		p.Wait(1000) // drains, ~0.9s
		t0 := time.Now()
		rate = 10000
		if !p.Wait(1000) {
			t.Error("a moved rate did not retune the pacer")
		}
		if d := time.Since(t0); d > 200*time.Millisecond {
			t.Errorf("after the rate rose tenfold, Wait(1000) took %v", d)
		}
	})
}

// TestPacerBurstFollowsShareVirtual is TestPacerBurstFollowsShare with the
// idle spell slept: the bytes a sender gets through before its first sleep
// are at most a tenth of a second of its new share.
func TestPacerBurstFollowsShareVirtual(t *testing.T) {
	synctest.Run(func() {
		const total = 100 << 20 // bytes/second
		b := NewRateBudget(total)
		defer b.Join()()
		p := NewPacer(b.Share)
		for i := 0; i < 9; i++ {
			defer b.Join()()
		}
		share := b.Share()
		time.Sleep(10 * time.Second)
		const frame = 64 << 10
		free := 0 // bytes through the pacer up to and including its first sleep
		for start := time.Now(); time.Now() == start && free < total; free += frame {
			p.Wait(frame)
		}
		if limit := int(share/10) + frame; free > limit {
			t.Errorf("%d bytes passed the pacer unpaced after the share fell to %d B/s; want at most %d", free, share, limit)
		}
	})
}
