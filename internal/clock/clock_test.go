package clock

import (
	"sync"
	"testing"
	"time"
)

func TestRealMonotonic(t *testing.T) {
	c := NewReal()
	a := c.Now()
	c.Sleep(2 * time.Millisecond)
	b := c.Now()
	if b <= a {
		t.Fatalf("time did not advance: %v -> %v", a, b)
	}
	c.Sleep(-time.Second) // negative sleep is a no-op, must not block or panic
}

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual()
	if v.Now() != 0 {
		t.Fatal("virtual clock not at zero")
	}
	v.Advance(5 * time.Second)
	if v.Now() != 5*time.Second {
		t.Fatalf("Now = %v", v.Now())
	}
	v.Sleep(time.Second)
	if v.Now() != 6*time.Second {
		t.Fatalf("Now after Sleep = %v", v.Now())
	}
	v.Set(10 * time.Second)
	if v.Now() != 10*time.Second {
		t.Fatalf("Now after Set = %v", v.Now())
	}
}

func TestVirtualPanics(t *testing.T) {
	v := NewVirtual()
	v.Advance(time.Second)
	for name, fn := range map[string]func(){
		"negative-advance": func() { v.Advance(-1) },
		"set-backwards":    func() { v.Set(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestVirtualConcurrent(t *testing.T) {
	v := NewVirtual()
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				v.Advance(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if v.Now() != time.Second {
		t.Fatalf("Now = %v, want 1s", v.Now())
	}
}

func TestRateLimiterVirtualThroughput(t *testing.T) {
	v := NewVirtual()
	// 1 MB/s, ~100KB burst
	rl := NewRateLimiter(v, 1<<20)
	start := v.Now()
	total := 0
	for i := 0; i < 100; i++ {
		rl.Wait(1 << 16) // 64 KiB chunks
		total += 1 << 16
	}
	elapsed := v.Now() - start
	// 100 * 64KiB = 6.25 MiB at 1 MiB/s ≈ 6.25 s (minus the initial burst)
	wantMin := 5 * time.Second
	wantMax := 7 * time.Second
	if elapsed < wantMin || elapsed > wantMax {
		t.Fatalf("transferring %d bytes took %v of virtual time, want ~6.2s", total, elapsed)
	}
}

func TestRateLimiterLargeSingleWait(t *testing.T) {
	v := NewVirtual()
	rl := NewRateLimiter(v, 1000) // 1000 B/s, 100 B burst
	rl.Wait(5000)                 // 50x burst: must drain in chunks, ~4.9s
	if got := v.Now(); got < 4*time.Second || got > 6*time.Second {
		t.Fatalf("Wait(5000) advanced %v, want ~4.9s", got)
	}
}

func TestRateLimiterUnlimited(t *testing.T) {
	v := NewVirtual()
	rl := NewRateLimiter(v, Unlimited)
	if d := rl.Wait(1 << 30); d != 0 || v.Now() != 0 {
		t.Fatalf("unlimited limiter waited %v / advanced %v", d, v.Now())
	}
}

func TestRateLimiterZeroAndNegative(t *testing.T) {
	v := NewVirtual()
	rl := NewRateLimiter(v, 100)
	if rl.Wait(0) != 0 || rl.Wait(-5) != 0 {
		t.Fatal("zero/negative Wait should be free")
	}
}

func TestRateLimiterSetRate(t *testing.T) {
	v := NewVirtual()
	rl := NewRateLimiter(v, 1000)
	if rl.Rate() != 1000 {
		t.Fatalf("Rate = %d", rl.Rate())
	}
	rl.Wait(1000) // drains, ~1s
	t0 := v.Now()
	rl.SetRate(10000)
	rl.Wait(1000) // at 10x rate, ~0.1s
	d := v.Now() - t0
	if d > 200*time.Millisecond {
		t.Fatalf("after SetRate, Wait(1000) took %v", d)
	}
}

func TestRateLimiterBadRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewRateLimiter(NewVirtual(), 0)
}

func TestRateLimiterRealClockSmoke(t *testing.T) {
	// Small real-time smoke test: 1 MB at 10 MB/s ≈ 100 ms.
	c := NewReal()
	rl := NewRateLimiter(c, 10<<20)
	start := time.Now()
	for i := 0; i < 16; i++ {
		rl.Wait(64 << 10)
	}
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("1 MiB at 10 MiB/s took %v", elapsed)
	}
}
