package core

import (
	"sync"
	"testing"
	"time"

	"bbmig/internal/blockdev"
	"bbmig/internal/transport"
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
	if got := NewRateBudget(0).Share(); got != Unlimited {
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

// enginePacer returns the pre-copy pacer the engine builds from cfg.
func enginePacer(cfg Config) *Pacer {
	conn, _ := transport.NewPipe(1)
	return newDiskTransfer(cfg.withDefaults(), blockdev.NewMemDisk(1, blockdev.BlockSize), conn, "TPM", "source").pace
}

// paced sends one byte through p and returns the rate it was paced at.
func paced(p *Pacer) int64 {
	p.Wait(1)
	return p.bps
}

// TestBudgetPolicyPrecopyRate: the engine paces pre-copy at the smaller of
// BandwidthLimit and Config.Budget's live share, and builds no pacer when
// neither caps anything.
func TestBudgetPolicyPrecopyRate(t *testing.T) {
	b := NewRateBudget(100)
	defer b.Join()()
	if got := paced(enginePacer(Config{Budget: b})); got != 100 {
		t.Fatalf("budgeted rate %d, want 100", got)
	}
	// The local cap wins when it is stricter than the share.
	if got := paced(enginePacer(Config{BandwidthLimit: 60, Budget: b})); got != 60 {
		t.Fatalf("rate with tighter local cap = %d, want 60", got)
	}
	p := enginePacer(Config{Budget: b})
	leave := b.Join()
	if got := paced(p); got != 50 {
		t.Fatalf("rate after second join = %d, want 50", got)
	}
	leave()
	if got := paced(enginePacer(Config{BandwidthLimit: 42})); got != 42 {
		t.Fatalf("unbudgeted rate %d, want the local cap 42", got)
	}
	if enginePacer(Config{Budget: NewRateBudget(0)}) != nil {
		t.Fatal("an unlimited migration built a pacer")
	}
}

// TestBudgetSharedAcrossMigrations drives the engine's live-retune path: a
// migration paced from a budget it shares with a second one speeds up on its
// next frame once the second leaves.
func TestBudgetSharedAcrossMigrations(t *testing.T) {
	b := NewRateBudget(1000)
	leave1 := b.Join()
	leave2 := b.Join()
	p := enginePacer(Config{Budget: b})
	if got := paced(p); got != 500 {
		t.Fatalf("share %d with two active", got)
	}
	leave2()
	if got := paced(p); got != 1000 {
		t.Fatalf("share %d after a peer left — the engine re-reads this per frame", got)
	}
	leave1()
}

// TestPacerBurstFollowsShare: a migration that started alone on a budget and
// then had its share cut tenfold by nine peers joining may, after an idle
// spell, send one tenth of a second of its new share without waiting — what
// a migration that started at that share may — not a tenth of a second of
// the share it started with. The idle spell is the bucket's refill mark moved
// ten seconds back; TestPacerBurstFollowsShareVirtual sleeps it.
func TestPacerBurstFollowsShare(t *testing.T) {
	const total = 100 << 20 // bytes/second
	b := NewRateBudget(total)
	defer b.Join()()
	p := NewPacer(b.Share)
	for i := 0; i < 9; i++ {
		defer b.Join()()
	}
	share := b.Share()
	p.last = p.last.Add(-10 * time.Second)
	p.Wait(0) // retunes to the share and refills for the idle spell
	if p.tokens > float64(share/10) {
		t.Fatalf("%.0f bytes may pass the pacer unpaced after the share fell to %d B/s; want at most %d", p.tokens, share, share/10)
	}
}

// TestPacerZeroAndNegative: a frame of no bytes costs nothing.
func TestPacerZeroAndNegative(t *testing.T) {
	p := NewPacer(func() int64 { return 100 })
	before := p.tokens
	p.Wait(0)
	p.Wait(-5)
	if p.tokens != before {
		t.Fatalf("empty frames spent %.0f tokens", before-p.tokens)
	}
}

// TestPacerUnlimited: an unlimited first verdict builds no pacer, and the
// nil pacer's Wait is free.
func TestPacerUnlimited(t *testing.T) {
	if p := NewPacer(func() int64 { return Unlimited }); p != nil {
		t.Fatal("an unlimited rate built a pacer")
	}
	var p *Pacer
	start := time.Now()
	if p.Wait(1<<30) || time.Since(start) > time.Second {
		t.Fatal("the nil pacer retuned or waited")
	}
}

// TestPacerBadRate: a zero or negative first verdict builds no pacer rather
// than one that divides by its rate.
func TestPacerBadRate(t *testing.T) {
	for _, r := range []int64{0, -1} {
		if p := NewPacer(func() int64 { return r }); p != nil {
			t.Fatalf("rate %d built a pacer", r)
		}
	}
}

// TestPacerRealClockSmoke: 1 MiB at 10 MiB/s takes about 100 ms.
func TestPacerRealClockSmoke(t *testing.T) {
	p := NewPacer(func() int64 { return 10 << 20 })
	start := time.Now()
	for i := 0; i < 16; i++ {
		p.Wait(64 << 10)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("1 MiB at 10 MiB/s took %v", elapsed)
	}
}
