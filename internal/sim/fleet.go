package sim

import (
	"fmt"
	"math"
	"time"

	"bbmig/internal/blockdev"
	"bbmig/internal/core"
	"bbmig/internal/forecast"
	"bbmig/internal/metrics"
)

// The fleet model. Where ClusterSweep drains one paper-testbed host at full
// engine fidelity, FleetSweep answers the autopilot's question at datacenter
// scale: across hundreds of hosts and ten thousand domains with time-varying
// write rates, how much does the cluster's trough rule — defer a migration
// into its domain's predicted write-rate trough when it writes well above
// the trough rate now (forecast.Model.DeferUntil) — buy in makespan,
// downtime, and interference (blocks re-sent because the guest dirtied them
// mid-copy)?
//
// The model trades the engine's block-level machinery for a closed-form
// replay of its §IV iteration law: each pre-copy iteration ships the
// previous iteration's dirty set at the migration's bandwidth share while
// the guest dirties
// hot·(1−exp(−writes/hot)) unique blocks, and the final set travels in the
// freeze window. That keeps a 10 000-domain sweep inside a second-scale
// wall-time budget, and every per-domain outcome streams straight into
// metrics.StreamStats accumulators — nothing per-domain is materialized.
//
// Each domain's write process is hashed from the sweep seed (size, hot set,
// rates, phase), so a seed pins the whole fleet: same seed, same rows.

// FleetShape selects the fleet's write-rate time profile.
type FleetShape int

const (
	// FleetDiurnal gives every domain a square wave — half the period at a
	// high rate near its migration's bandwidth share, half near idle — with
	// a hashed phase, the datacenter day/night pattern trough scheduling
	// exists for.
	FleetDiurnal FleetShape = iota
	// FleetConstant gives every domain a flat moderate rate: no troughs to
	// find, so predictive and reactive scheduling should tie — the sweep's
	// control arm.
	FleetConstant
	// FleetBursty gives every domain short hashed bursts over a near-idle
	// floor: unforecastable at heartbeat grain, so prediction degrades to
	// the long-run mean and buys little.
	FleetBursty
)

// String names the shape for row labels.
func (s FleetShape) String() string {
	switch s {
	case FleetDiurnal:
		return "diurnal"
	case FleetConstant:
		return "constant"
	case FleetBursty:
		return "bursty"
	}
	return fmt.Sprintf("shape(%d)", int(s))
}

// The fleet's fixed figures. Each draining host's uplink is the paper's
// effective rate, shared by drainConcurrency migrations at a time, each at
// the steady-state fair share fleetShareBlk. Warmup counters arrive every
// fleetHeartbeat; fleetPeriod is the diurnal square wave's period — the
// sim's compressed "day", scaled so a drain spans several troughs the way a
// real drain spans several off-peak windows — and the forecast models see
// fleetWarmupPeriods of them before the drain begins (enough that the period
// lag sits well inside the autocorrelation scan).
const (
	fleetShareBlk      = netBytesPerSec / drainConcurrency / blockdev.BlockSize // blocks/second
	fleetHeartbeat     = 30 * time.Second
	fleetPeriod        = 20 * time.Minute
	fleetWarmupPeriods = 3
)

// FleetParams parameterizes one fleet drain simulation.
type FleetParams struct {
	// Seed pins every hashed per-domain parameter.
	Seed int64
	// Hosts and Domains size the fleet; domain i lives on host i mod Hosts,
	// and the first Hosts/5 hosts (at least one) are drained.
	Hosts, Domains int
	// Shape selects the write-rate profile.
	Shape FleetShape
	// Predictive selects the scheduling policy. Both migrate each host's
	// domains in index order as slots free; true first feeds a
	// forecast.Model per domain from warmup heartbeats and stamps each
	// domain with DeferUntil when the batch is submitted, the rule the
	// cluster applies to normal- and low-priority moves (Rebalance, the
	// autopilot). A Drain submits PriorityEvacuate jobs, which the cluster
	// never defers, so a drain runs the reactive arm.
	Predictive bool
}

// FleetRow is one (shape, policy) arm's outcome.
type FleetRow struct {
	// Shape and Policy label the arm ("diurnal", "predictive", ...).
	Shape, Policy string
	// Hosts, Domains, Drained, and Migrations restate the arm's scale
	// (Migrations = domains hosted on the Drained hosts).
	Hosts, Domains, Drained, Migrations int
	// Makespan is the slowest draining host's evacuation duration.
	Makespan time.Duration
	// MeanDuration averages per-migration wall time (pre-copy + freeze).
	MeanDuration time.Duration
	// MeanDowntime and MaxDowntime aggregate the per-VM freeze windows.
	MeanDowntime, MaxDowntime time.Duration
	// HighStarts counts migrations that began while their domain wrote in
	// its high phase — the interference the predictive policy exists to
	// avoid.
	HighStarts int
	// RetransBlocks counts blocks sent beyond each image's size: pre-copy
	// re-sends plus the freeze-window copy, the wire cost of migrating a
	// writing guest.
	RetransBlocks int64
	// Speedup, on predictive rows, is the same-shape reactive arm's
	// makespan divided by this one's (zero on reactive rows).
	Speedup float64
}

// fleetDomain is one domain's hashed ground truth.
type fleetDomain struct {
	size, hot float64 // image and rewrite-set sizes, blocks
	high, low float64 // write rates, blocks/second
	phase     time.Duration
	mdl       *forecast.Model
	notBefore time.Duration // DeferUntil's stamp; zero when not deferred
}

// splitmix64 is the per-domain parameter hash (Steele et al.'s SplitMix64
// finalizer): cheap, stateless, and seed-deterministic.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fleetU draws a uniform [0,1) hashed from (seed, domain, salt).
func fleetU(seed int64, idx int, salt uint64) float64 {
	h := splitmix64(uint64(seed) ^ saltMix(uint64(idx), salt))
	return float64(h>>11) / (1 << 53)
}

// saltMix folds the domain index and salt into one hash input.
func saltMix(idx, salt uint64) uint64 {
	return splitmix64(idx*0x9e3779b97f4a7c15 + salt)
}

// newFleetDomains hashes the fleet's ground truth from the seed. The high
// rate straddles the migration's transfer share (1.0–1.5x), so a high-phase
// migration hits the §IV plateau and a trough migration converges in a
// couple of iterations — the paper's convergent/divergent dichotomy.
func newFleetDomains(p FleetParams) []fleetDomain {
	doms := make([]fleetDomain, p.Domains)
	for i := range doms {
		u1 := fleetU(p.Seed, i, 1)
		u2 := fleetU(p.Seed, i, 2)
		u3 := fleetU(p.Seed, i, 3)
		u4 := fleetU(p.Seed, i, 4)
		d := &doms[i]
		d.size = float64(1<<17) * (1 + u1) // 512 MB – 1 GB of 4 KiB blocks
		d.hot = d.size * (0.6 + 0.15*u2)
		d.phase = time.Duration(u4 * float64(fleetPeriod))
		switch p.Shape {
		case FleetDiurnal:
			d.high = (1.0 + 0.5*u3) * fleetShareBlk
			d.low = 0.01 * d.high
		case FleetConstant:
			d.high = (0.25 + 0.1*u3) * fleetShareBlk
			d.low = d.high
		case FleetBursty:
			d.high = (1.5 + 0.5*u3) * fleetShareBlk
			d.low = 0.03 * d.high
		}
	}
	return doms
}

// rateAt returns domain i's true write rate at simulated time t.
func (p FleetParams) rateAt(doms []fleetDomain, i int, t time.Duration) float64 {
	d := &doms[i]
	switch p.Shape {
	case FleetConstant:
		return d.high
	case FleetDiurnal:
		if (t+d.phase)%fleetPeriod < fleetPeriod/2 {
			return d.high
		}
		return d.low
	case FleetBursty:
		// One heartbeat-wide burst on average every eighth beat.
		beat := uint64((t + d.phase) / fleetHeartbeat)
		if splitmix64(uint64(p.Seed)^saltMix(uint64(i), 0x105+beat*2))%8 == 0 {
			return d.high
		}
		return d.low
	}
	return 0
}

// writesIn integrates domain i's true write rate over [from, to) in blocks —
// closed form for the square wave, beat-quantized for bursts.
func (p FleetParams) writesIn(doms []fleetDomain, i int, from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	d := &doms[i]
	switch p.Shape {
	case FleetConstant:
		return d.high * (to - from).Seconds()
	case FleetDiurnal:
		cum := func(t time.Duration) float64 {
			sec := (t + d.phase).Seconds()
			psec := fleetPeriod.Seconds()
			half := psec / 2
			n := math.Floor(sec / psec)
			rem := sec - n*psec
			w := n * (d.high + d.low) * half
			if rem <= half {
				return w + d.high*rem
			}
			return w + d.high*half + d.low*(rem-half)
		}
		return cum(to) - cum(from)
	case FleetBursty:
		var w float64
		for t := from; t < to; {
			next := (t/fleetHeartbeat + 1) * fleetHeartbeat
			if next > to {
				next = to
			}
			w += p.rateAt(doms, i, t) * (next - t).Seconds()
			t = next
		}
		return w
	}
	return 0
}

// migrate replays the §IV iteration law for one domain starting at start, in
// closed form through the pre-copy driver: each iteration ships the previous
// one's dirty set at the fair share while the guest dirties
// hot·(1−exp(−writes/hot)) unique blocks. It returns the total duration
// (pre-copy + freeze), the freeze window, and blocks sent on the wire.
func (p FleetParams) migrate(doms []fleetDomain, i int, start time.Duration) (dur, down time.Duration, sent float64) {
	d := &doms[i]
	t, pre, writes := start, 0.0, 0.0
	final := runPreCopy(preCopySpec{
		threshold: diskDirtyThreshold, maxIter: core.DefaultMaxDiskIters,
		send: func(_ int, blocks float64) {
			step := blocks / fleetShareBlk
			writes = p.writesIn(doms, i, t, t+fdur(step))
			sent += blocks
			pre += step
			t += fdur(step)
		},
		dirty: func() float64 { return d.hot * (1 - math.Exp(-writes/d.hot)) },
	}, d.size)
	down = fdur(final/fleetShareBlk) + fixedDowntime
	return fdur(pre) + down, down, sent + final
}

// fdur converts seconds to a Duration.
func fdur(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}

// warmupModels feeds every domain's forecast model the heartbeat counter
// stream an autopilot would see: cumulative writes at fleetHeartbeat cadence
// for fleetWarmupPeriods periods. Counters accumulate incrementally, so warmup is
// O(domains × beats) regardless of shape.
func warmupModels(p FleetParams, doms []fleetDomain) {
	beats := int(fleetWarmupPeriods * fleetPeriod / fleetHeartbeat)
	cum := make([]float64, len(doms))
	for i := range doms {
		doms[i].mdl = forecast.NewModel()
	}
	for b := 1; b <= beats; b++ {
		at := time.Duration(b) * fleetHeartbeat
		for i := range doms {
			cum[i] += p.writesIn(doms, i, at-fleetHeartbeat, at)
			doms[i].mdl.ObserveCount(at, int64(cum[i]))
		}
	}
}

// pickMigration takes, for a slot free at now, the first pending domain
// whose deferral stamp has passed; when none has, the slot idles until the
// earliest stamp — the cluster dispatcher's walk over a queue of deferred
// tickets.
func pickMigration(doms []fleetDomain, pending []int, now time.Duration) (pick int, startAt time.Duration) {
	for k, i := range pending {
		if doms[i].notBefore <= now {
			return k, now
		}
		if doms[i].notBefore < doms[pending[pick]].notBefore {
			pick = k
		}
	}
	return pick, doms[pending[pick]].notBefore
}

// runFleet simulates one drain arm and streams the outcomes into one row.
func runFleet(p FleetParams) FleetRow {
	doms := newFleetDomains(p)
	drained := p.Hosts / 5
	if drained < 1 {
		drained = 1
	}
	drainAt := fleetWarmupPeriods * fleetPeriod
	if p.Predictive {
		warmupModels(p, doms)
	}

	var duration, downtime, retrans metrics.StreamStats
	var makespan time.Duration
	migrations, highStarts := 0, 0

	for h := 0; h < drained; h++ {
		var pending []int
		for i := h; i < p.Domains; i += p.Hosts {
			pending = append(pending, i)
			if p.Predictive {
				doms[i].notBefore, _ = doms[i].mdl.DeferUntil(drainAt)
			}
		}
		slots := make([]time.Duration, drainConcurrency)
		for s := range slots {
			slots[s] = drainAt
		}
		for len(pending) > 0 {
			s := 0
			for k := range slots {
				if slots[k] < slots[s] {
					s = k
				}
			}
			pick, startAt := pickMigration(doms, pending, slots[s])
			i := pending[pick]
			pending = append(pending[:pick], pending[pick+1:]...)

			dur, down, sent := p.migrate(doms, i, startAt)
			slots[s] = startAt + dur
			migrations++
			duration.Add(dur.Seconds())
			downtime.Add(down.Seconds())
			retrans.Add(sent - doms[i].size)
			if p.rateAt(doms, i, startAt) > (doms[i].high+doms[i].low)/2 {
				highStarts++
			}
		}
		for _, end := range slots {
			if span := end - drainAt; span > makespan {
				makespan = span
			}
		}
	}

	policy := "reactive"
	if p.Predictive {
		policy = "predictive"
	}
	return FleetRow{
		Shape: p.Shape.String(), Policy: policy,
		Hosts: p.Hosts, Domains: p.Domains, Drained: drained, Migrations: migrations,
		Makespan:      makespan,
		MeanDuration:  fdur(duration.Mean()),
		MeanDowntime:  fdur(downtime.Mean()),
		MaxDowntime:   fdur(downtime.Max()),
		HighStarts:    highStarts,
		RetransBlocks: int64(retrans.Mean() * float64(retrans.Count())),
	}
}

// FleetSweep runs the reactive and predictive arms over all three shapes at
// the given scale, each shape's reactive row followed by its predictive row,
// and stamps each predictive row's Speedup against its same-shape reactive
// arm. At seed 1 the trough rule drains the diurnal fleet 1.19x faster at
// 40 hosts × 2 000 domains and 1.29x at 200 × 10 000, and ties exactly on
// the constant control and the unforecastable bursty arm.
func FleetSweep(seed int64, hosts, domains int) ([]FleetRow, *metrics.Table) {
	var rows []FleetRow
	for _, shape := range []FleetShape{FleetDiurnal, FleetConstant, FleetBursty} {
		base := FleetParams{Seed: seed, Hosts: hosts, Domains: domains, Shape: shape}
		re := runFleet(base)
		base.Predictive = true
		pr := runFleet(base)
		if pr.Makespan > 0 {
			pr.Speedup = float64(re.Makespan) / float64(pr.Makespan)
		}
		rows = append(rows, re, pr)
	}

	t := &metrics.Table{
		Title: fmt.Sprintf("Fleet sweep — %d domains, %d hosts, normal-priority moves, reactive vs predictive (trough rule)", domains, hosts),
		Columns: []string{
			"shape", "policy", "migs", "makespan (s)", "mean dur (s)",
			"mean down (ms)", "max down (ms)", "high starts", "retrans (GB)", "speedup",
		},
	}
	for _, r := range rows {
		speedup := "-"
		if r.Speedup > 0 {
			speedup = fmt.Sprintf("%.2f", r.Speedup)
		}
		t.AddRow(r.Shape, r.Policy,
			fmt.Sprintf("%d", r.Migrations),
			fmt.Sprintf("%.0f", r.Makespan.Seconds()),
			fmt.Sprintf("%.1f", r.MeanDuration.Seconds()),
			fmt.Sprintf("%d", r.MeanDowntime.Milliseconds()),
			fmt.Sprintf("%d", r.MaxDowntime.Milliseconds()),
			fmt.Sprintf("%d", r.HighStarts),
			fmt.Sprintf("%.1f", float64(r.RetransBlocks)*blockdev.BlockSize/1e9),
			speedup,
		)
	}
	return rows, t
}
