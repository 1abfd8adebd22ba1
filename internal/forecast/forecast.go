// Package forecast models per-domain dirty-block write rates so the cluster
// layer can anticipate migrations instead of merely reacting to them. The
// paper's §IV stop conditions decide one migration at a time — "stop
// pre-copy when the dirty rate catches the transfer rate"; this package asks
// the same question of a domain's write history before a migration starts:
// is the domain writing so much faster now than it will in an upcoming
// trough that the migration should wait for it (DeferUntil)?
//
// A Model ingests the cumulative write counters a hostd heartbeat reports
// (ObserveCount) and maintains three estimators on top of a bounded sample
// ring:
//
//   - an exponentially-weighted moving average (Rate) tracking the recent
//     write rate with a five-minute half-life;
//   - a duration-weighted long-run mean (MeanRate) over every observation
//     ever made, which only sharpens as the window grows — the estimator
//     behind the monotone-error property the tests pin;
//   - a periodicity detector (Period) running normalized autocorrelation
//     over the ring, feeding a phase-bucketed predictor (RateAt) that
//     projects the rate at arbitrary future times and locates upcoming
//     troughs (NextTrough).
//
// DeferUntil is the one admission rule built on them; the cluster's
// scheduler and the fleet simulator both call it.
//
// All Model methods are safe for concurrent use.
package forecast

import (
	"math"
	"sync"
	"time"
)

// The deferral rule DeferUntil applies.
const (
	// TroughHorizon bounds how far ahead DeferUntil looks for a trough.
	TroughHorizon = time.Hour
	// TroughRatio is the deferral trigger: a migration waits for the trough
	// only when the current predicted rate exceeds the trough's by this
	// factor — anything flatter is not worth waiting for.
	TroughRatio = 2.0
)

// Model shape.
const (
	// maxSamples bounds the sample ring: enough for a few periods of
	// heartbeat-cadence history without per-domain memory mattering at
	// 10k-domain scale (256 samples ≈ 4 KiB).
	maxSamples = 256
	// halfLife is the EWMA half-life: five minutes, a few heartbeat
	// intervals, so Rate tracks phase changes without chasing single bursts.
	halfLife = 5 * time.Minute
	// buckets is how many phase buckets the periodic predictor divides one
	// period into.
	buckets = 32
	// minPeriodicity is the autocorrelation score a candidate period must
	// reach before RateAt trusts phase buckets over the flat estimators.
	minPeriodicity = 0.5
)

// sample is one observed (interval, rate) pair on the model's timeline.
type sample struct {
	at   time.Duration // end of the observation interval
	dur  time.Duration // interval length
	rate float64       // blocks/second over the interval
}

// Model is a per-domain dirty-rate estimator. Feed it write observations
// with ObserveCount; query it with Rate, MeanRate, Period, RateAt,
// NextTrough, and DeferUntil.
type Model struct {
	mu sync.Mutex

	ring  []sample // fixed-capacity ring, chronological from start
	start int      // index of the oldest sample
	n     int      // live sample count

	lastAt    time.Duration // timeline position of the newest observation
	lastCount int64         // last cumulative counter seen by ObserveCount
	haveCount bool

	ewma     float64
	haveEWMA bool

	sumRateDur float64 // ∫ rate dt over every observation ever made
	sumDur     float64 // total observed seconds

	// Cached analysis over the ring, rebuilt lazily after observations.
	cacheOK     bool
	periodic    bool
	period      time.Duration
	periodScore float64
	bucketRate  []float64 // per-phase-bucket duration-weighted mean rate
	bucketHas   []bool
	chron       []sample // scratch: chronological view of the ring
}

// NewModel returns an empty model.
func NewModel() *Model {
	return &Model{}
}

// ObserveCount feeds one heartbeat-style observation: the domain's
// cumulative block-write counter as of time at on the model's timeline.
// The first call only anchors the counter; each later call converts the
// delta into a rate sample over the elapsed interval. A counter that went
// backwards is treated as a restart (the domain moved hosts and its new
// backend counts from zero), so the raw value is the delta. Observations
// at or before the previous timestamp are ignored.
func (m *Model) ObserveCount(at time.Duration, count int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.haveCount {
		m.haveCount = true
		m.lastCount = count
		m.lastAt = at
		return
	}
	if at <= m.lastAt {
		return
	}
	delta := count - m.lastCount
	if delta < 0 {
		delta = count
	}
	dur := at - m.lastAt
	m.observeLocked(at, dur, float64(delta)/dur.Seconds())
	m.lastCount = count
}

// observeLocked appends one sample and updates the running estimators.
func (m *Model) observeLocked(at, dur time.Duration, rate float64) {
	if m.ring == nil {
		m.ring = make([]sample, maxSamples)
	}
	s := sample{at: at, dur: dur, rate: rate}
	if m.n < len(m.ring) {
		m.ring[(m.start+m.n)%len(m.ring)] = s
		m.n++
	} else {
		m.ring[m.start] = s
		m.start = (m.start + 1) % len(m.ring)
	}
	m.lastAt = at
	m.cacheOK = false

	sec := dur.Seconds()
	m.sumRateDur += rate * sec
	m.sumDur += sec
	// Time-decayed EWMA: the decay factor depends on how much time the
	// observation covers, so irregular heartbeats still weight correctly.
	if !m.haveEWMA {
		m.ewma = rate
		m.haveEWMA = true
	} else {
		alpha := 1 - math.Exp(-sec*math.Ln2/halfLife.Seconds())
		m.ewma += alpha * (rate - m.ewma)
	}
}

// Rate returns the EWMA estimate of the current write rate in
// blocks/second (zero before any observation).
func (m *Model) Rate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ewma
}

// MeanRate returns the duration-weighted mean rate over every observation
// ever made — not just the ring — so its error against a stationary
// workload's true mean is monotone-nonincreasing in the observation
// window. Zero before the second observation.
func (m *Model) MeanRate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sumDur == 0 {
		return 0
	}
	return m.sumRateDur / m.sumDur
}

// Period returns the detected dominant write-rate period, if the ring's
// autocorrelation found one above minPeriodicity.
func (m *Model) Period() (time.Duration, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.refreshLocked()
	return m.period, m.periodic
}

// Periodicity returns the autocorrelation score of the detected period
// (zero when aperiodic) — a confidence signal for schedulers deciding
// whether a trough forecast is worth deferring work into.
func (m *Model) Periodicity() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.refreshLocked()
	if !m.periodic {
		return 0
	}
	return m.periodScore
}

// RateAt predicts the write rate (blocks/second) at an arbitrary timeline
// position, past or future. With a detected period the prediction is the
// duration-weighted mean of ring samples sharing at's phase bucket; without
// one it is the EWMA near the present and the long-run mean farther out.
func (m *Model) RateAt(at time.Duration) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rateAtLocked(at)
}

func (m *Model) rateAtLocked(at time.Duration) float64 {
	m.refreshLocked()
	if m.periodic {
		b := m.bucketOf(at)
		if m.bucketHas[b] {
			return m.bucketRate[b]
		}
	}
	if m.sumDur == 0 {
		return m.ewma
	}
	// Aperiodic: trust recency only near the present — two mean sample
	// intervals out, fall back to the long-run mean.
	if m.n > 0 {
		horizon := 2 * m.meanIntervalLocked()
		if at >= m.lastAt-horizon && at <= m.lastAt+horizon {
			return m.ewma
		}
	}
	return m.sumRateDur / m.sumDur
}

// bucketOf maps a timeline position to its phase bucket (callers ensure a
// period is detected).
func (m *Model) bucketOf(at time.Duration) int {
	phase := at % m.period
	if phase < 0 {
		phase += m.period
	}
	b := int(int64(phase) * int64(len(m.bucketRate)) / int64(m.period))
	if b >= len(m.bucketRate) {
		b = len(m.bucketRate) - 1
	}
	return b
}

// meanIntervalLocked returns the mean spacing of ring samples.
func (m *Model) meanIntervalLocked() time.Duration {
	if m.n < 2 {
		return 0
	}
	first := m.ring[m.start]
	last := m.ring[(m.start+m.n-1)%len(m.ring)]
	return (last.at - first.at) / time.Duration(m.n-1)
}

// NextTrough scans [from, from+horizon] for the earliest moment the
// predicted rate comes within 10% of the window's minimum, returning that
// time and the predicted rate there. Without a detected period the rate
// curve is flat, so the trough is now: it returns (from, RateAt(from)).
func (m *Model) NextTrough(from, horizon time.Duration) (time.Duration, float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextTroughLocked(from, horizon)
}

func (m *Model) nextTroughLocked(from, horizon time.Duration) (time.Duration, float64) {
	m.refreshLocked()
	if !m.periodic || horizon <= 0 {
		return from, m.rateAtLocked(from)
	}
	span := m.period
	if horizon < span {
		span = horizon
	}
	step := m.period / time.Duration(len(m.bucketRate))
	if step <= 0 {
		step = time.Second
	}
	min := math.Inf(1)
	for t := from; t <= from+span; t += step {
		if r := m.rateAtLocked(t); r < min {
			min = r
		}
	}
	limit := min*1.1 + 1e-9
	for t := from; t <= from+span; t += step {
		if r := m.rateAtLocked(t); r <= limit {
			return t, r
		}
	}
	return from, m.rateAtLocked(from)
}

// DeferUntil is the trough rule admission applies to a migration about to
// start at now: it returns the predicted trough to wait for, and true, only
// when the model holds at least 16 samples, NextTrough finds a trough after
// now within TroughHorizon, and the rate predicted for now exceeds
// TroughRatio times the trough's; otherwise it returns (0, false). Starting
// in the loud phase would let the dirty rate catch the transfer rate sooner
// (§IV) and balloon the pre-copy's retransfers.
func (m *Model) DeferUntil(now time.Duration) (until time.Duration, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n < 16 {
		return 0, false // not enough history to disagree with "now"
	}
	cur := m.rateAtLocked(now)
	troughAt, troughRate := m.nextTroughLocked(now, TroughHorizon)
	if troughAt <= now || cur <= TroughRatio*troughRate+1e-9 {
		return 0, false
	}
	return troughAt, true
}

// refreshLocked rebuilds the cached period detection and phase buckets.
func (m *Model) refreshLocked() {
	if m.cacheOK {
		return
	}
	m.cacheOK = true
	m.periodic = false
	m.periodScore = 0

	m.chron = m.chron[:0]
	for i := 0; i < m.n; i++ {
		m.chron = append(m.chron, m.ring[(m.start+i)%len(m.ring)])
	}
	n := len(m.chron)
	if n < 8 {
		return
	}

	// Normalized autocorrelation over the (approximately uniform) sample
	// sequence. Any slowly-varying signal correlates near 1.0 at tiny lags,
	// so the search starts after the correlation first dips — the first
	// peak past the dip is the fundamental period, not a harmonic.
	mean, va := 0.0, 0.0
	for _, s := range m.chron {
		mean += s.rate
	}
	mean /= float64(n)
	for _, s := range m.chron {
		va += (s.rate - mean) * (s.rate - mean)
	}
	va /= float64(n)
	if va <= 1e-12 || math.Sqrt(va) < 0.05*math.Abs(mean) {
		return // effectively constant: no period to find
	}
	scores := make([]float64, n/2+1)
	for lag := 2; lag <= n/2; lag++ {
		var num float64
		for i := 0; i+lag < n; i++ {
			num += (m.chron[i].rate - mean) * (m.chron[i+lag].rate - mean)
		}
		scores[lag] = num / (float64(n-lag) * va)
	}
	dip := 0
	for lag := 2; lag <= n/2; lag++ {
		if scores[lag] < 0.25 {
			dip = lag
			break
		}
	}
	if dip == 0 {
		return // never decorrelates within the ring: no cycle visible
	}
	bestLag, bestR := 0, 0.0
	for lag := dip; lag <= n/2; lag++ {
		if scores[lag] > bestR {
			bestR, bestLag = scores[lag], lag
		}
	}
	if bestLag == 0 || bestR < minPeriodicity {
		return
	}
	interval := m.meanIntervalLocked()
	if interval <= 0 {
		return
	}
	m.periodic = true
	m.period = time.Duration(bestLag) * interval
	m.periodScore = bestR

	// Duration-weighted per-phase-bucket means over the ring.
	if m.bucketRate == nil {
		m.bucketRate = make([]float64, buckets)
		m.bucketHas = make([]bool, buckets)
	}
	sums := make([]float64, buckets)
	weights := make([]float64, buckets)
	for _, s := range m.chron {
		w := s.dur.Seconds()
		b := m.bucketOf(s.at)
		sums[b] += s.rate * w
		weights[b] += w
	}
	for b := range sums {
		if weights[b] > 0 {
			m.bucketRate[b] = sums[b] / weights[b]
			m.bucketHas[b] = true
		} else {
			m.bucketRate[b] = 0
			m.bucketHas[b] = false
		}
	}
}
