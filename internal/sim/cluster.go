package sim

import (
	"fmt"
	"time"

	"bbmig/internal/blockdev"
	"bbmig/internal/metrics"
	"bbmig/internal/workload"
)

// The cluster evacuation model. ClusterSweep answers the orchestrator's
// sizing question at paper scale: when a maintenance drain must move M
// paper-testbed domains off one host, how does the scheduler's concurrency
// cap trade evacuation makespan against per-VM downtime?
//
// Modelled resources: each destination host sits behind its own
// Gigabit-class link (the paper's effective rate), while the draining host's
// uplink carries clusterUplinkLinks times that — the global bandwidth budget
// the scheduler shares. A migration therefore runs at
// min(link, budget/concurrency): concurrency buys makespan until the uplink
// saturates, after which it only dilutes per-migration bandwidth and starts
// inflating the freeze-and-copy window (downtime). The scheduler runs the
// drain in waves of `concurrency` migrations; a wave ends when its slowest
// migration completes.

// clusterDomains is the number of domains evacuated in the sweep: two per
// destination host, the paper's own per-machine density, across four
// destinations.
const clusterDomains = 8

// clusterUplinkLinks sizes the draining host's uplink (the scheduler's
// global budget) in units of one destination link.
const clusterUplinkLinks = 4

// ClusterSweepRow is one concurrency setting's outcome.
type ClusterSweepRow struct {
	// Label names the row ("4", "4 + 10 s outage", ...).
	Label string
	// Concurrency is the scheduler cap the row models.
	Concurrency int
	// PerMigRate is the bandwidth one migration runs at, bytes/second.
	PerMigRate float64
	// Makespan is the whole evacuation's duration.
	Makespan time.Duration
	// MeanDowntime and MaxDowntime aggregate the per-VM freeze windows.
	MeanDowntime, MaxDowntime time.Duration
	// Retries and ResentMB quantify the injected-fault row's resume cost
	// (zero on clean rows).
	Retries  int
	ResentMB float64
}

// ClusterSweep evacuates clusterDomains paper-testbed web domains at
// scheduler concurrency 1, 2, 4, and 8, plus one arm where a 10-second link
// outage hits the first migration and the engine's resume path absorbs it.
// The paper's numbers to recognize: a solo web migration takes ~796 s with
// ~60 ms downtime, so the serial drain is ~6400 s; concurrency 4 saturates
// the modelled uplink and cuts the makespan ~4x while downtime stays at the
// solo figure, and concurrency 8 only halves per-migration bandwidth —
// makespan barely moves but every VM's freeze window roughly doubles.
func ClusterSweep(seed int64) ([]ClusterSweepRow, *metrics.Table) {
	runRow := func(label string, c int, outage time.Duration) ClusterSweepRow {
		rate, makespan, results := evacuate(seed, c, func(p *Params, i int) {
			if outage > 0 && i == 0 {
				// Cut the first migration mid disk pre-copy (each simulated
				// migration runs on its own timeline from 0).
				p.OutageAt = time.Duration(0.4 * float64(estimateMigration(*p, p.NetBytesPerSec)))
				p.OutageDuration = outage
			}
		})
		row := ClusterSweepRow{Label: label, Concurrency: c, PerMigRate: rate, Makespan: makespan}
		var totalDowntime time.Duration
		for _, r := range results {
			totalDowntime += r.Report.Downtime
			row.MaxDowntime = max(row.MaxDowntime, r.Report.Downtime)
			row.Retries += r.Report.Retries
			row.ResentMB += float64(r.Report.ResentBytes) / 1e6
		}
		row.MeanDowntime = totalDowntime / clusterDomains
		return row
	}

	var rows []ClusterSweepRow
	for _, c := range []int{1, 2, 4, 8} {
		rows = append(rows, runRow(fmt.Sprintf("%d", c), c, 0))
	}
	rows = append(rows, runRow("4 + 10 s outage", 4, 10*time.Second))

	t := &metrics.Table{
		Title: fmt.Sprintf("Cluster evacuation sweep — %d web domains, uplink budget %dx link",
			clusterDomains, clusterUplinkLinks),
		Columns: []string{
			"concurrency", "per-mig (MB/s)", "makespan (s)",
			"mean downtime (ms)", "max downtime (ms)", "retries", "re-sent (MB)",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Label,
			fmt.Sprintf("%.0f", r.PerMigRate/1e6),
			fmt.Sprintf("%.0f", r.Makespan.Seconds()),
			fmt.Sprintf("%d", r.MeanDowntime.Milliseconds()),
			fmt.Sprintf("%d", r.MaxDowntime.Milliseconds()),
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%.1f", r.ResentMB),
		)
	}
	return rows, t
}

// evacuate is the drain's wave model: clusterDomains paper-testbed web
// domains, each on its own seed and tuned by arm, migrate in waves of c at
// min(link, budget/c), and a wave ends when its slowest migration completes.
// It returns the per-migration rate, the makespan, and every domain's
// result in order.
func evacuate(seed int64, c int, arm func(p *Params, i int)) (rate float64, makespan time.Duration, results []*Result) {
	base := Defaults(workload.Web)
	base.DwellAfter = time.Minute
	link := base.NetBytesPerSec
	rate = min(link, clusterUplinkLinks*link/float64(c))
	for i := 0; i < clusterDomains; i += c {
		var wave time.Duration
		for k := i; k < i+c && k < clusterDomains; k++ {
			p := base
			p.Seed = seed + int64(k)
			p.NetBytesPerSec = rate
			arm(&p, k)
			r := RunTPM(p)
			wave = max(wave, r.MigEnd-r.MigStart)
			results = append(results, r)
		}
		makespan += wave
	}
	return rate, makespan, results
}

// estimateMigration predicts one migration's rough duration at the given
// rate — enough to aim an outage injection inside the transfer window, and
// close enough to the full simulation (within ~20%) to size a schedule.
// It prices iteration 1 with the simulator's own formula (iter1Wire), the
// DedupShare fraction as references. Later iterations' re-sends and the
// freeze window are workload-dependent and left out — the bulk copy dominates
// a paper-testbed migration.
func estimateMigration(p Params, rate float64) time.Duration {
	diskBlocks := float64(int64(p.DiskMB) << 20 / blockdev.BlockSize)
	extent := p.MaxExtentBlocks
	if extent < 1 {
		extent = 1
	}
	share := 0.0
	if p.Dedup {
		share = clamp01(p.DedupShare)
	}
	wire, _ := iter1Wire(p, diskBlocks, diskBlocks*share, blockdev.BlockSize+float64(frameOverhead)/float64(extent))
	wire += float64(int64(p.MemMB) << 20) // memory pre-copy travels literal
	return time.Duration(wire / rate * float64(time.Second))
}
