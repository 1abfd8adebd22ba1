package core

import (
	"sync"
	"testing"
	"time"

	"bbmig/internal/clock"
)

func TestRateBudgetShare(t *testing.T) {
	b := NewRateBudget(100)
	if got := b.Share(); got != 100 {
		t.Fatalf("idle share %d, want the whole budget", got)
	}
	l1 := b.Join()
	l2 := b.Join()
	if got := b.Share(); got != 50 {
		t.Fatalf("share with 2 active = %d, want 50", got)
	}
	if got := b.Active(); got != 2 {
		t.Fatalf("active %d", got)
	}
	l1()
	l1() // idempotent
	if got := b.Share(); got != 100 {
		t.Fatalf("share after leave = %d, want 100", got)
	}
	if got := NewRateBudget(0).Share(); got != clock.Unlimited {
		t.Fatalf("unlimited budget share = %d", got)
	}
	l2()
}

func TestRateBudgetConcurrent(t *testing.T) {
	b := NewRateBudget(1 << 30)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				leave := b.Join()
				b.Share()
				leave()
			}
		}()
	}
	wg.Wait()
	if got := b.Active(); got != 0 {
		t.Fatalf("active %d after balanced join/leave", got)
	}
}

func TestBudgetPolicyPrecopyRate(t *testing.T) {
	b := NewRateBudget(100)
	p := &BudgetPolicy{Budget: b}
	leave := b.Join()
	defer leave()
	if got := p.PrecopyRate(clock.Unlimited); got != 100 {
		t.Fatalf("budgeted rate %d, want 100", got)
	}
	// The inner policy's verdict wins when it is stricter than the share.
	if got := p.PrecopyRate(60); got != 60 {
		t.Fatalf("rate with tighter local cap = %d, want 60", got)
	}
	leave2 := b.Join()
	if got := p.PrecopyRate(clock.Unlimited); got != 50 {
		t.Fatalf("rate after second join = %d, want 50", got)
	}
	leave2()
	// Nil budget and nil inner degrade to DefaultPolicy pass-through.
	var pt BudgetPolicy
	if got := pt.PrecopyRate(42); got != 42 {
		t.Fatalf("pass-through rate %d", got)
	}
	if !pt.ContinuePreCopy(IterationStat{Dirty: 10, Threshold: 1, Iteration: 1, MaxIterations: 4}) {
		t.Fatal("delegated ContinuePreCopy verdict wrong")
	}
	pt.ObserveExtent(1, 1, time.Millisecond)
	if got := pt.ExtentBlocks(8); got != 8 {
		t.Fatalf("delegated ExtentBlocks %d", got)
	}
}

// TestBudgetSharedAcrossMigrations drives the engine's live-retune path: a
// migration paced by a BudgetPolicy must speed up when a second budget
// member leaves mid-run. Asserted structurally (the limiter's rate moves),
// via the policy's own view of the share.
func TestBudgetSharedAcrossMigrations(t *testing.T) {
	b := NewRateBudget(1000)
	p := &BudgetPolicy{Budget: b}
	leave1 := b.Join()
	leave2 := b.Join()
	if got := p.PrecopyRate(clock.Unlimited); got != 500 {
		t.Fatalf("share %d with two active", got)
	}
	leave2()
	if got := p.PrecopyRate(clock.Unlimited); got != 1000 {
		t.Fatalf("share %d after a peer left — the engine re-reads this per frame", got)
	}
	leave1()
}

// TestPacerBurstFollowsShare: a migration that started alone on a budget and
// then had its share cut tenfold by nine peers joining may, after an idle
// spell, send one tenth of a second of its new share without waiting — what
// a migration that started at that share may — not a tenth of a second of
// the share it started with.
func TestPacerBurstFollowsShare(t *testing.T) {
	const total = 100 << 20 // bytes/second
	v := clock.NewVirtual()
	b := NewRateBudget(total)
	defer b.Join()()
	p := NewPacer(v, b.Share)
	for i := 0; i < 9; i++ {
		defer b.Join()()
	}
	share := b.Share()
	v.Advance(10 * time.Second)
	const frame = 64 << 10
	free := 0 // bytes through the pacer up to and including its first sleep
	for start := v.Now(); v.Now() == start && free < total; free += frame {
		p.Wait(frame)
	}
	if limit := int(share/10) + frame; free > limit {
		t.Fatalf("%d bytes passed the pacer unpaced after the share fell to %d B/s; want at most %d", free, share, limit)
	}
}
