package core

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Unlimited is the rate, in bytes/second, that caps nothing: an unlimited
// Config.BandwidthLimit or RateBudget, under which no Pacer is built.
const Unlimited = math.MaxInt64

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
	total  int64 // bytes/second; Unlimited disables the budget
	active int   // migrations currently drawing a share
}

// NewRateBudget returns a budget of total bytes/second. A total <= 0 means
// unlimited: the budget admits everyone and shares nothing.
func NewRateBudget(total int64) *RateBudget {
	if total <= 0 {
		total = Unlimited
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
// gets a sane cap). An unlimited budget returns Unlimited.
func (b *RateBudget) Share() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.total == Unlimited {
		return Unlimited
	}
	n := b.active
	if n < 1 {
		n = 1
	}
	return b.total / int64(n)
}

// Pacer is the one implementation of the pacing rule every paced sender
// follows — the engine's pre-copy sends and hostd's swarm serve, which is how
// the paper caps migration bandwidth ("we just simply limit the network
// bandwidth used by the migration process in the pre-copy phase", §VI-C-3).
// It is a token bucket of bytes built from the rate source's first verdict
// and retuned to the live verdict before every frame, so a share that moves
// mid-transfer (a RateBudget re-dividing as migrations come and go) takes
// effect on the next frame. The bucket holds a tenth of a second at the live
// rate: a sender whose share shrank sends no more after an idle spell than
// one that started at that share. A sender whose first verdict is unlimited gets a nil Pacer,
// which never blocks and never consults the source again.
type Pacer struct {
	rate func() int64

	mu     sync.Mutex
	bps    int64 // the live rate in bytes/second
	tokens float64
	last   time.Time // when tokens were last refilled
}

// NewPacer returns a pacer drawing its rate, in bytes/second, from rate, or
// nil when rate's first verdict is Unlimited (or not positive).
func NewPacer(rate func() int64) *Pacer {
	r := rate()
	if r <= 0 || r == Unlimited {
		return nil
	}
	return &Pacer{rate: rate, bps: r, tokens: float64(burstOf(r)), last: time.Now()}
}

// burstOf is the bucket size at bytesPerSec: a tenth of a second of it.
func burstOf(bytesPerSec int64) int64 { return max(bytesPerSec/10, 1) }

// Wait blocks until a frame of n bytes may go at the live rate, and reports
// whether the rate, and with it the burst, moved since the last frame. The
// frame spends its bytes at once, into debt if the bucket holds fewer, and
// sleeps until the debt is repaid, so concurrent senders queue in the order
// they called.
func (p *Pacer) Wait(n int) (retuned bool) {
	if p == nil {
		return false
	}
	p.mu.Lock()
	p.refillLocked()
	if r := p.rate(); r > 0 && r != p.bps {
		p.bps = r
		p.tokens = min(p.tokens, float64(burstOf(r)))
		retuned = true
	}
	p.tokens -= float64(max(n, 0))
	debt := time.Duration(-p.tokens / float64(p.bps) * float64(time.Second))
	p.mu.Unlock()
	if debt > 0 {
		time.Sleep(debt)
	}
	return retuned
}

func (p *Pacer) refillLocked() {
	now := time.Now()
	if now.After(p.last) {
		p.tokens = min(p.tokens+now.Sub(p.last).Seconds()*float64(p.bps), float64(burstOf(p.bps)))
		p.last = now
	}
}

// Burst returns the bytes the pacer lets go at once at the live rate.
func (p *Pacer) Burst() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return burstOf(p.bps)
}
