// Package forecast models per-domain dirty-block write rates so the cluster
// layer can anticipate migrations instead of merely reacting to them. The
// paper's §IV stop conditions decide one migration at a time — "stop
// pre-copy when the dirty rate catches the transfer rate"; this package
// generalizes that test into a prediction: given a domain's observed write
// history, what would an iterative pre-copy cost if it started *now*, and
// when is the next write-rate trough worth deferring it into?
//
// A Model ingests either raw rate samples (ObserveRate) or the cumulative
// write counters a hostd heartbeat reports (ObserveCount) and maintains
// three estimators on top of a bounded sample ring:
//
//   - an exponentially-weighted moving average (Rate) tracking the recent
//     write rate with a configurable half-life;
//   - a duration-weighted long-run mean (MeanRate) over every observation
//     ever made, which only sharpens as the window grows — the estimator
//     behind the monotone-error property the tests pin;
//   - a periodicity detector (Period) running normalized autocorrelation
//     over the ring, feeding a phase-bucketed predictor (RateAt) that
//     projects the rate at arbitrary future times and locates upcoming
//     troughs (NextTrough).
//
// PredictConvergence then replays the §IV pre-copy loop against the
// predicted rate curve: iteration k ships the blocks iteration k-1
// dirtied, writes accumulate against a hot-set-capped unique-block model
// (the same saturation law workload.Locality measures), and the loop stops
// when the dirty set falls under the threshold, the dirty rate catches the
// transfer rate, or the iteration cap fires. The result — convergence,
// iteration count, pre-copy time, final dirty set — is what admission
// control and the autopilot trade off against waiting for a trough.
//
// All Model methods are safe for concurrent use.
package forecast

import (
	"math"
	"sync"
	"time"
)

// Defaults for Config fields left zero.
const (
	// DefaultMaxSamples bounds the sample ring: enough for a few periods of
	// heartbeat-cadence history without per-domain memory mattering at
	// 10k-domain scale (256 samples ≈ 4 KiB).
	DefaultMaxSamples = 256
	// DefaultHalfLife is the EWMA half-life: five minutes, a few heartbeat
	// intervals, so Rate tracks phase changes without chasing single bursts.
	DefaultHalfLife = 5 * time.Minute
	// DefaultBuckets is how many phase buckets the periodic predictor
	// divides one period into.
	DefaultBuckets = 32
	// DefaultMinPeriodicity is the autocorrelation score a candidate period
	// must reach before RateAt trusts phase buckets over the flat estimators.
	DefaultMinPeriodicity = 0.5
	// DefaultMaxIterations caps the predicted pre-copy loop when
	// MigrationParams.MaxIterations is zero.
	DefaultMaxIterations = 30
)

// Config parameterizes a Model. The zero value selects the defaults above.
type Config struct {
	// MaxSamples is the sample-ring capacity; zero selects DefaultMaxSamples.
	MaxSamples int
	// HalfLife is the EWMA half-life; zero selects DefaultHalfLife.
	HalfLife time.Duration
	// Buckets is the phase resolution of the periodic predictor; zero
	// selects DefaultBuckets.
	Buckets int
	// MinPeriodicity is the autocorrelation acceptance threshold in [0, 1];
	// zero selects DefaultMinPeriodicity.
	MinPeriodicity float64
}

func (c Config) withDefaults() Config {
	if c.MaxSamples <= 0 {
		c.MaxSamples = DefaultMaxSamples
	}
	if c.HalfLife <= 0 {
		c.HalfLife = DefaultHalfLife
	}
	if c.Buckets <= 0 {
		c.Buckets = DefaultBuckets
	}
	if c.MinPeriodicity <= 0 {
		c.MinPeriodicity = DefaultMinPeriodicity
	}
	return c
}

// sample is one observed (interval, rate) pair on the model's timeline.
type sample struct {
	at   time.Duration // end of the observation interval
	dur  time.Duration // interval length (0 for the very first sample)
	rate float64       // blocks/second over the interval
}

// Model is a per-domain dirty-rate estimator. Feed it write observations
// with ObserveCount or ObserveRate; query it with Rate, MeanRate, Period,
// RateAt, NextTrough, and PredictConvergence.
type Model struct {
	mu  sync.Mutex
	cfg Config

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

// NewModel returns an empty model with cfg's (defaulted) parameters.
func NewModel(cfg Config) *Model {
	return &Model{cfg: cfg.withDefaults()}
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

// ObserveRate feeds one pre-computed rate sample (blocks/second) observed
// over the interval ending at time at. The interval length is inferred
// from the previous observation's timestamp. Observations at or before the
// previous timestamp are ignored.
func (m *Model) ObserveRate(at time.Duration, rate float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n > 0 || m.haveCount {
		if at <= m.lastAt {
			return
		}
		m.observeLocked(at, at-m.lastAt, rate)
		return
	}
	m.observeLocked(at, 0, rate)
}

// observeLocked appends one sample and updates the running estimators.
func (m *Model) observeLocked(at, dur time.Duration, rate float64) {
	if m.ring == nil {
		m.ring = make([]sample, m.cfg.MaxSamples)
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

	if dur > 0 {
		sec := dur.Seconds()
		m.sumRateDur += rate * sec
		m.sumDur += sec
		// Time-decayed EWMA: the decay factor depends on how much time the
		// observation covers, so irregular heartbeats still weight correctly.
		if !m.haveEWMA {
			m.ewma = rate
			m.haveEWMA = true
		} else {
			alpha := 1 - math.Exp(-sec*math.Ln2/m.cfg.HalfLife.Seconds())
			m.ewma += alpha * (rate - m.ewma)
		}
	} else if !m.haveEWMA {
		m.ewma = rate
		m.haveEWMA = true
	}
}

// Samples returns how many rate samples the ring currently holds.
func (m *Model) Samples() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
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
// autocorrelation found one above Config.MinPeriodicity.
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
	if bestLag == 0 || bestR < m.cfg.MinPeriodicity {
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
	if cap(m.bucketRate) < m.cfg.Buckets {
		m.bucketRate = make([]float64, m.cfg.Buckets)
		m.bucketHas = make([]bool, m.cfg.Buckets)
	}
	m.bucketRate = m.bucketRate[:m.cfg.Buckets]
	m.bucketHas = m.bucketHas[:m.cfg.Buckets]
	sums := make([]float64, m.cfg.Buckets)
	weights := make([]float64, m.cfg.Buckets)
	for _, s := range m.chron {
		w := s.dur.Seconds()
		if w <= 0 {
			continue
		}
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

// integrateLocked returns the predicted blocks written over [from, to].
func (m *Model) integrateLocked(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	step := (to - from) / 16
	if m.periodic {
		if s := m.period / time.Duration(len(m.bucketRate)); s > 0 && s < step {
			step = s
		}
	}
	if step <= 0 {
		step = time.Millisecond
	}
	total := 0.0
	for t := from; t < to; t += step {
		end := t + step
		if end > to {
			end = to
		}
		mid := t + (end-t)/2
		total += m.rateAtLocked(mid) * (end - t).Seconds()
	}
	return total
}

// MigrationParams describes one candidate (domain, link-share) pair for
// PredictConvergence.
type MigrationParams struct {
	// StartAt is when the pre-copy would begin, on the model's timeline
	// (the same time base its observations used).
	StartAt time.Duration
	// Blocks is the domain's VBD size in blocks.
	Blocks int
	// HotBlocks caps the writable working set: predicted writes dirty at
	// most this many unique blocks (workload.LocalityStats.UniqueBlocks is
	// the natural source). Zero means the whole disk is writable.
	HotBlocks int
	// BlocksPerSec is the link share the migration would get, in
	// blocks/second.
	BlocksPerSec float64
	// MaxIterations caps the pre-copy loop; zero selects
	// DefaultMaxIterations.
	MaxIterations int
	// DirtyThreshold stops the loop once the predicted dirty set is at or
	// under this many blocks (zero: only a fully clean iteration stops it).
	DirtyThreshold int
}

// Convergence is PredictConvergence's verdict on one candidate migration.
type Convergence struct {
	// Converges reports whether the predicted dirty set fell to the
	// threshold. False means a stop rule fired first — the dirty rate
	// caught the transfer rate (§IV) or the iteration cap hit — and the
	// cutover would ship FinalDirtyBlocks.
	Converges bool
	// Iterations is how many pre-copy iterations the prediction ran.
	Iterations int
	// PreCopyTime is the predicted wall time of those iterations.
	PreCopyTime time.Duration
	// FinalDirtyBlocks is the predicted dirty set at cutover.
	FinalDirtyBlocks int
	// Downtime is the predicted freeze window: FinalDirtyBlocks at the
	// given link share. Platform-fixed pause costs are the caller's to add.
	Downtime time.Duration
}

// PredictConvergence replays the §IV iterative pre-copy loop against the
// model's predicted rate curve: each iteration ships the previous
// iteration's dirty set while new writes accumulate under a hot-set-capped
// unique-block law, and the loop stops when the dirty set reaches the
// threshold (converged), when it stops shrinking — the paper's "dirty rate
// caught the transfer rate" — or at the iteration cap. Each iteration ships
// its whole set here; the engine leaves out units already dirty again
// (core.owedCursor), so predicted bytes and durations are upper bounds; the
// page-sized downtime estimate is one too, since the engine's final page set
// travels as word deltas where it has a base (vm.BaseBook).
func (m *Model) PredictConvergence(p MigrationParams) Convergence {
	m.mu.Lock()
	defer m.mu.Unlock()

	c := Convergence{}
	if p.Blocks <= 0 || p.BlocksPerSec <= 0 {
		return c
	}
	maxIters := p.MaxIterations
	if maxIters <= 0 {
		maxIters = DefaultMaxIterations
	}
	hot := float64(p.HotBlocks)
	if hot <= 0 {
		hot = float64(p.Blocks)
	}

	toSend := float64(p.Blocks)
	t := p.StartAt
	prev := math.Inf(1)
	for iter := 1; ; iter++ {
		dt := time.Duration(toSend / p.BlocksPerSec * float64(time.Second))
		writes := m.integrateLocked(t, t+dt)
		dirty := hot * (1 - math.Exp(-writes/hot))
		t += dt
		c.Iterations = iter
		c.FinalDirtyBlocks = int(math.Ceil(dirty))
		if c.FinalDirtyBlocks <= p.DirtyThreshold {
			c.Converges = true
			break
		}
		if iter >= maxIters {
			break
		}
		if iter > 1 && dirty >= prev {
			break // dirty rate caught the transfer rate: pre-copy has stalled
		}
		prev = dirty
		toSend = dirty
	}
	c.PreCopyTime = t - p.StartAt
	c.Downtime = time.Duration(float64(c.FinalDirtyBlocks) / p.BlocksPerSec * float64(time.Second))
	return c
}
