package core

import (
	"fmt"
	"sync"

	"bbmig/internal/clock"
)

// RateBudget divides a global pre-copy bandwidth budget among the
// migrations currently drawing from it. The cluster orchestrator creates one
// budget per fleet and sets it as Config.Budget of every migration it
// schedules: each migration's pacing becomes total/active, re-read live, so
// admitting or completing a migration immediately re-shares the bandwidth
// among the survivors without restarting anyone's limiter.
//
// A RateBudget is safe for concurrent use; sharing one instance between
// concurrent migrations is the whole point.
type RateBudget struct {
	mu     sync.Mutex
	total  int64 // bytes/second; clock.Unlimited disables the budget
	active int   // migrations currently drawing a share
}

// NewRateBudget returns a budget of total bytes/second. A total <= 0 means
// unlimited: the budget admits everyone and shares nothing.
func NewRateBudget(total int64) *RateBudget {
	if total <= 0 {
		total = clock.Unlimited
	}
	return &RateBudget{total: total}
}

// Join registers one migration as drawing from the budget and returns the
// matching release function. Call Join before the migration starts and the
// release after it ends (in error paths too); the release is idempotent.
func (b *RateBudget) Join() (leave func()) {
	b.mu.Lock()
	b.active++
	b.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			b.mu.Lock()
			b.active--
			if b.active < 0 {
				panic(fmt.Sprintf("core: rate budget released %d times", -b.active))
			}
			b.mu.Unlock()
		})
	}
}

// Active reports how many migrations currently draw from the budget.
func (b *RateBudget) Active() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.active
}

// Share returns the per-migration rate right now: total divided by the
// active draw count (at least one, so a migration that forgot to Join still
// gets a sane cap). An unlimited budget returns clock.Unlimited.
func (b *RateBudget) Share() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.total == clock.Unlimited {
		return clock.Unlimited
	}
	n := b.active
	if n < 1 {
		n = 1
	}
	return b.total / int64(n)
}

// Pacer is the one implementation of the pacing rule every paced sender
// follows — the engine's pre-copy sends and hostd's swarm serve: a token
// bucket built from the rate source's first verdict, retuned to the live
// verdict before every frame, so a share that moves mid-transfer (a
// RateBudget re-dividing as migrations come and go) takes effect on the next
// frame. The burst is always a tenth of a second at the live rate: a sender
// whose share shrank sends no more after an idle spell than one that started
// at that share. A sender whose first verdict is unlimited gets a nil Pacer,
// which never blocks and never consults the source again.
type Pacer struct {
	lim  *clock.RateLimiter
	rate func() int64
}

// NewPacer returns a pacer over clk drawing its rate, in bytes/second, from
// rate, or nil when rate's first verdict is clock.Unlimited (or not positive).
func NewPacer(clk clock.Clock, rate func() int64) *Pacer {
	r := rate()
	if r <= 0 || r == clock.Unlimited {
		return nil
	}
	return &Pacer{lim: clock.NewRateLimiter(clk, r), rate: rate}
}

// Wait blocks until a frame of n bytes may go at the live rate, and reports
// whether the rate, and with it the burst, moved since the last frame.
func (p *Pacer) Wait(n int) (retuned bool) {
	if p == nil {
		return false
	}
	if r := p.rate(); r > 0 && r != p.lim.Rate() {
		p.lim.SetRate(r)
		retuned = true
	}
	p.lim.Wait(n)
	return retuned
}

// Burst returns the bytes the pacer lets go at once at the live rate.
func (p *Pacer) Burst() int64 { return p.lim.Burst() }
