package clock

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Unlimited disables rate limiting when used as a RateLimiter bandwidth.
const Unlimited = math.MaxInt64

// RateLimiter is a token-bucket bandwidth shaper. The migration engine wraps
// its transfer path in one limiter per direction; capping it reproduces the
// paper's §VI-C-3 experiment where limiting migration bandwidth halves the
// impact on Bonnie++ throughput at the cost of ~37% longer pre-copy.
//
// Tokens are bytes. The bucket refills at bytesPerSec and holds at most
// burst bytes, always a tenth of a second of the current rate. Wait(n)
// blocks (via the Clock) until n tokens are available; n may exceed burst,
// in which case the call drains the bucket repeatedly.
type RateLimiter struct {
	mu          sync.Mutex
	clk         Clock
	bytesPerSec int64
	burst       int64
	tokens      float64
	last        time.Duration
}

// NewRateLimiter returns a limiter over clk at bytesPerSec. A bytesPerSec of
// Unlimited returns a limiter whose Wait is free.
func NewRateLimiter(clk Clock, bytesPerSec int64) *RateLimiter {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("clock: bad rate %d", bytesPerSec))
	}
	burst := burstOf(bytesPerSec)
	return &RateLimiter{
		clk:         clk,
		bytesPerSec: bytesPerSec,
		burst:       burst,
		tokens:      float64(burst),
		last:        clk.Now(),
	}
}

// burstOf is the bucket size at bytesPerSec: a tenth of a second of it.
func burstOf(bytesPerSec int64) int64 { return max(bytesPerSec/10, 1) }

// Rate returns the configured bandwidth in bytes per second.
func (r *RateLimiter) Rate() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytesPerSec
}

// Burst returns the bucket size in bytes: a tenth of a second of the rate.
func (r *RateLimiter) Burst() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.burst
}

// SetRate changes the bandwidth and with it the burst: a limiter retuned to
// a smaller share must not keep the burst of the larger one. Existing tokens
// are kept, clamped to the new burst.
func (r *RateLimiter) SetRate(bytesPerSec int64) {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("clock: bad rate %d", bytesPerSec))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.refillLocked()
	r.bytesPerSec = bytesPerSec
	r.burst = burstOf(bytesPerSec)
	r.tokens = min(r.tokens, float64(r.burst))
}

func (r *RateLimiter) refillLocked() {
	now := r.clk.Now()
	if now > r.last {
		r.tokens += float64(now-r.last) / float64(time.Second) * float64(r.bytesPerSec)
		if r.tokens > float64(r.burst) {
			r.tokens = float64(r.burst)
		}
		r.last = now
	}
}

// Wait blocks until n bytes of budget are available, then spends them.
// It returns the total time slept.
func (r *RateLimiter) Wait(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	var slept time.Duration
	remaining := int64(n)
	for remaining > 0 {
		r.mu.Lock()
		// Re-read under the lock: SetRate may retune a limiter mid-wait
		// (concurrent sends share one limiter), including to Unlimited.
		if r.bytesPerSec == Unlimited {
			r.mu.Unlock()
			return slept
		}
		r.refillLocked()
		chunk := remaining
		if chunk > r.burst {
			chunk = r.burst
		}
		if r.tokens >= float64(chunk) {
			r.tokens -= float64(chunk)
			remaining -= chunk
			r.mu.Unlock()
			continue
		}
		deficit := float64(chunk) - r.tokens
		wait := time.Duration(deficit / float64(r.bytesPerSec) * float64(time.Second))
		if wait <= 0 {
			wait = time.Nanosecond
		}
		r.mu.Unlock()
		r.clk.Sleep(wait)
		slept += wait
	}
	return slept
}
