package forecast_test

import (
	"math"
	"testing"
	"time"

	"bbmig/internal/blockdev"
	"bbmig/internal/forecast"
	"bbmig/internal/workload"
)

// squareIntegral returns the cumulative block writes of a square-wave rate
// (high for duty*period, then low) from time zero to t.
func squareIntegral(t, period time.Duration, high, low, duty float64) float64 {
	whole := float64(t / period)
	perPeriod := duty*high*period.Seconds() + (1-duty)*low*period.Seconds()
	c := whole * perPeriod
	rem := t % period
	highDur := time.Duration(duty * float64(period))
	if rem <= highDur {
		c += high * rem.Seconds()
	} else {
		c += high*highDur.Seconds() + low*(rem-highDur).Seconds()
	}
	return c
}

// feedSquare drives a model with heartbeat-style cumulative counters that
// follow a square-wave rate, from time zero through `until`.
func feedSquare(m *forecast.Model, until, period, hb time.Duration, high, low, duty float64) {
	for t := time.Duration(0); t <= until; t += hb {
		m.ObserveCount(t, int64(squareIntegral(t, period, high, low, duty)))
	}
}

const (
	diurnalPeriod = 40 * time.Minute
	diurnalHb     = 30 * time.Second
	diurnalHigh   = 500.0
	diurnalLow    = 10.0
)

func TestModelConstantTrace(t *testing.T) {
	m := forecast.NewModel()
	for i := 0; i <= 64; i++ {
		m.ObserveCount(time.Duration(i)*30*time.Second, int64(i)*3000) // 100 blk/s
	}
	if got := m.Rate(); math.Abs(got-100) > 1 {
		t.Fatalf("EWMA rate = %.2f, want ~100", got)
	}
	if got := m.MeanRate(); math.Abs(got-100) > 0.01 {
		t.Fatalf("mean rate = %.2f, want 100", got)
	}
	if p, ok := m.Period(); ok {
		t.Fatalf("constant trace detected period %v", p)
	}
	// Flat curve: any future time predicts the same rate.
	if got := m.RateAt(4 * time.Hour); math.Abs(got-100) > 1 {
		t.Fatalf("RateAt(future) = %.2f, want ~100", got)
	}
	at, rate := m.NextTrough(35*time.Minute, 2*time.Hour)
	if at != 35*time.Minute || math.Abs(rate-100) > 1 {
		t.Fatalf("NextTrough on flat curve = (%v, %.1f), want (now, ~100)", at, rate)
	}
}

func TestModelDiurnalTrace(t *testing.T) {
	m := forecast.NewModel()
	feedSquare(m, 3*diurnalPeriod, diurnalPeriod, diurnalHb, diurnalHigh, diurnalLow, 0.5)

	p, ok := m.Period()
	if !ok {
		t.Fatal("no period detected on a 3-period square wave")
	}
	if p < diurnalPeriod-2*time.Minute || p > diurnalPeriod+2*time.Minute {
		t.Fatalf("period = %v, want ~%v", p, diurnalPeriod)
	}
	if s := m.Periodicity(); s < 0.5 {
		t.Fatalf("periodicity score = %.2f, want >= 0.5", s)
	}

	// Phase-bucket prediction one period ahead: mid-high and mid-low times.
	future := 3 * diurnalPeriod
	highAt := future + diurnalPeriod/4
	lowAt := future + 3*diurnalPeriod/4
	if got := m.RateAt(highAt); math.Abs(got-diurnalHigh) > 0.1*diurnalHigh {
		t.Fatalf("RateAt(high phase) = %.1f, want ~%.0f", got, diurnalHigh)
	}
	if got := m.RateAt(lowAt); math.Abs(got-diurnalLow) > 0.5*diurnalLow {
		t.Fatalf("RateAt(low phase) = %.1f, want ~%.0f", got, diurnalLow)
	}

	// A trough sought from mid-high phase lands in the low half-period.
	at, rate := m.NextTrough(highAt, 2*diurnalPeriod)
	phase := at % diurnalPeriod
	if phase < diurnalPeriod/2 {
		t.Fatalf("NextTrough landed at phase %v, still in the high half", phase)
	}
	if rate > 2*diurnalLow {
		t.Fatalf("NextTrough rate = %.1f, want ~%.0f", rate, diurnalLow)
	}
}

// feedBursty drives a model with n heartbeats of deterministic aperiodic
// bursts — rate 800 for xorshift-placed 30 s windows, 20 otherwise — and
// returns the trace's true mean rate.
func feedBursty(m *forecast.Model, state uint64, n int) float64 {
	var cum, sumRate float64
	for i := 0; i <= n; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		rate := 20.0
		if state%4 == 0 {
			rate = 800
		}
		if i > 0 {
			cum += rate * 30
			sumRate += rate
		}
		m.ObserveCount(time.Duration(i)*30*time.Second, int64(cum))
	}
	return sumRate / float64(n)
}

func TestModelBurstyTrace(t *testing.T) {
	m := forecast.NewModel()
	trueMean := feedBursty(m, 0x9e3779b97f4a7c15, 240)
	if got := m.MeanRate(); math.Abs(got-trueMean) > 0.02*trueMean {
		t.Fatalf("mean rate = %.1f, want ~%.1f", got, trueMean)
	}
	// Far-future prediction falls back to the long-run mean (no period, or
	// a weak one whose buckets still average near the mean).
	if got := m.RateAt(12 * time.Hour); math.Abs(got-trueMean) > 0.75*trueMean {
		t.Fatalf("RateAt(far future) = %.1f, want within 75%% of mean %.1f", got, trueMean)
	}
}

func TestModelDiabolicalTrace(t *testing.T) {
	const horizon = 600 * time.Second
	const window = 5 * time.Second

	g := workload.New(workload.Diabolic, 8192, 1)
	m := forecast.NewModel()
	var cum int64
	nextBoundary := window
	for {
		a := g.Next()
		if a.At >= horizon {
			break
		}
		for a.At >= nextBoundary {
			m.ObserveCount(nextBoundary, cum)
			nextBoundary += window
		}
		if a.Op == blockdev.Write {
			cum += int64(a.Count)
		}
	}
	m.ObserveCount(nextBoundary, cum)

	trueMean := float64(cum) / nextBoundary.Seconds()
	if got := m.MeanRate(); math.Abs(got-trueMean) > 0.05*trueMean {
		t.Fatalf("mean rate = %.1f, want within 5%% of %.1f", got, trueMean)
	}
}

// TestForecastErrorMonotone pins the property that the long-run mean's
// error is monotone-nonincreasing in the observation window. The windows
// deliberately end half a period off-phase, so each carries a bias of
// exactly half a high half-period's excess — an error that shrinks as
// 1/window and must therefore decrease strictly at every doubling.
func TestForecastErrorMonotone(t *testing.T) {
	trueMean := 0.5*diurnalHigh + 0.5*diurnalLow
	var prev float64
	for i, periods := range []float64{1.5, 2.5, 4.5, 8.5, 16.5} {
		m := forecast.NewModel()
		until := time.Duration(periods * float64(diurnalPeriod))
		feedSquare(m, until, diurnalPeriod, diurnalHb, diurnalHigh, diurnalLow, 0.5)
		err := math.Abs(m.MeanRate() - trueMean)
		if i > 0 && err > prev+1e-9 {
			t.Fatalf("error grew with window: %.3f @ %.1f periods > %.3f before", err, periods, prev)
		}
		prev = err
	}
	if prev > 0.1*trueMean {
		t.Fatalf("error after 16.5 periods = %.3f, want < 10%% of mean", prev)
	}

	// The same property under aperiodic noise, with slack: bursty traces
	// converge in distribution, not sample-path-monotonically.
	burstErr := func(samples int) float64 {
		m := forecast.NewModel()
		feedBursty(m, 12345, samples)
		return math.Abs(m.MeanRate() - 215) // E[rate] = 0.75*20 + 0.25*800
	}
	first := burstErr(64)
	worst := first
	for _, n := range []int{128, 256, 512, 1024} {
		e := burstErr(n)
		if e > worst*1.5+10 {
			t.Fatalf("bursty error at %d samples = %.1f, want <= %.1f (+slack)", n, e, worst)
		}
		if e < worst {
			worst = e
		}
	}
	if final := burstErr(2048); final > first {
		t.Fatalf("bursty error did not shrink: %.1f at 2048 samples vs %.1f at 64", final, first)
	}
}

// TestDeferUntil pins the trough rule: a domain sampled in the loud half of
// a deep diurnal wave waits for the quiet half, and nothing else waits — not
// the quiet half itself, not a wave too shallow to clear TroughRatio, not a
// flat or bursty trace, and not a model with too little history to trust.
func TestDeferUntil(t *testing.T) {
	midHigh := 3*diurnalPeriod + diurnalPeriod/4
	m := forecast.NewModel()
	feedSquare(m, midHigh, diurnalPeriod, diurnalHb, diurnalHigh, diurnalLow, 0.5)
	until, ok := m.DeferUntil(midHigh)
	if !ok {
		t.Fatal("mid-high phase of a diurnal wave did not defer")
	}
	if phase := until % diurnalPeriod; phase < diurnalPeriod/2 {
		t.Fatalf("deferred to phase %v, still in the high half", phase)
	}
	if wait := until - midHigh; wait <= 0 || wait >= diurnalPeriod {
		t.Fatalf("deferred %v ahead, want within one period", wait)
	}

	midLow := 3*diurnalPeriod + 3*diurnalPeriod/4
	lowPhase := forecast.NewModel()
	feedSquare(lowPhase, midLow, diurnalPeriod, diurnalHb, diurnalHigh, diurnalLow, 0.5)
	shallow := forecast.NewModel()
	feedSquare(shallow, midHigh, diurnalPeriod, diurnalHb, 1.5*diurnalLow, diurnalLow, 0.5)
	flat := forecast.NewModel()
	feedSquare(flat, midHigh, diurnalPeriod, diurnalHb, diurnalHigh, diurnalHigh, 0.5)
	bursty := forecast.NewModel()
	feedBursty(bursty, 0x9e3779b97f4a7c15, 240)
	// A four-beat wave shows its period within 15 samples; only the history
	// floor keeps it from deferring.
	young := forecast.NewModel()
	feedSquare(young, 15*diurnalHb, 4*diurnalHb, diurnalHb, diurnalHigh, diurnalLow, 0.5)

	for name, c := range map[string]struct {
		m   *forecast.Model
		now time.Duration
	}{
		"mid-low phase":   {lowPhase, midLow},
		"shallow wave":    {shallow, midHigh},
		"flat trace":      {flat, midHigh},
		"bursty trace":    {bursty, 240 * 30 * time.Second},
		"15 samples only": {young, 15*diurnalHb + time.Minute},
	} {
		if until, ok := c.m.DeferUntil(c.now); ok {
			t.Errorf("%s: deferred to %v", name, until)
		}
	}
}
