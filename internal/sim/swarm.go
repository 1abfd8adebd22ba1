package sim

import (
	"fmt"
	"time"

	"bbmig/internal/metrics"
	"bbmig/internal/workload"
)

// The swarm evacuation model. SwarmSweep answers the multi-source layer's
// sizing question at paper scale: when a clone fleet evacuates toward cold
// destinations — the first arrivals hold nothing, but the hosts staying
// behind are warm with clone siblings and retained copies — how much does
// fanning each migration's want-set across those peers' uplinks buy over
// PR 5's single-source dedup, which can only elide what the *destination*
// already holds?
//
// Single-source dedup at a cold destination elides just the zero share:
// the template content exists all over the fleet but only the source's
// uplink can carry it. The swarm arm fetches that template share from
// swarmPeerCount nominated warm peers in parallel with the source stream,
// so the evacuation drains at fleet bandwidth instead of source bandwidth.
const (
	// swarmPeerCount mirrors cluster.DefaultSwarmPeers: nominated warm
	// peers per migration, each contributing one link of serve bandwidth.
	swarmPeerCount = 3
)

// SwarmSweepRow is one arm's outcome.
type SwarmSweepRow struct {
	// Label names the arm ("literal", "single-source dedup", "swarm").
	Label string
	// PerDomainWireMB is one migration's source-channel wire bytes in MB.
	PerDomainWireMB float64
	// FleetWireGB is the whole evacuation's source-channel wire total, GB.
	FleetWireGB float64
	// SwarmBlocks is one migration's peer-produced block count.
	SwarmBlocks int
	// Makespan is the evacuation's duration under the drain's wave model
	// (evacuate) at the sweet-spot concurrency.
	Makespan time.Duration
	// Speedup is the makespan improvement versus the single-source dedup
	// arm (1x for that arm itself; the acceptance bar pins ≥2x for the
	// swarm arm).
	Speedup float64
}

// SwarmSweep evacuates the ClusterSweep fleet (8 paper-testbed web domains,
// uplink budget 4x one link, concurrency 4) toward cold destinations three
// times: literal transfer, single-source content dedup (only the zero share
// elides — the destination is cold), and swarm multi-source fetch (the
// template share arrives from three warm clone-hosting peers in parallel),
// all at 64 blocks per extent. The test pins the swarm arm's makespan at
// ≥ 2x shorter than single-source dedup's (3.4x at seed 1).
func SwarmSweep(seed int64) ([]SwarmSweepRow, *metrics.Table) {
	link := Defaults(workload.Web).NetBytesPerSec
	arms := []struct {
		label             string
		dedup             bool
		share, swarmShare float64
	}{
		{"literal", false, 0, 0},
		{"single-source dedup, cold dest", true, dedupZeroShare, 0},
		{"swarm, 3 warm clone peers", true, dedupZeroShare, dedupTemplateShare},
	}
	var rows []SwarmSweepRow
	var baselineMakespan time.Duration
	for _, arm := range arms {
		_, makespan, results := evacuate(seed, drainConcurrency, func(p *Params, _ int) {
			p.Dedup, p.DedupShare, p.MaxExtentBlocks = arm.dedup, arm.share, 64
			if arm.swarmShare > 0 {
				// Each nominated peer serves over its own uplink; the sidecar
				// links are separate from the source path.
				p.SwarmShare, p.SwarmBytesPerSec = arm.swarmShare, swarmPeerCount*link
			}
		})
		row := SwarmSweepRow{Label: arm.label, Makespan: makespan, SwarmBlocks: results[0].Report.SwarmBlocks}
		row.PerDomainWireMB, row.FleetWireGB = fleetWire(results)
		if arm.label == arms[1].label {
			baselineMakespan = row.Makespan
		}
		rows = append(rows, row)
	}
	for i := range rows {
		if rows[i].Makespan > 0 {
			rows[i].Speedup = float64(baselineMakespan) / float64(rows[i].Makespan)
		}
	}

	t := &metrics.Table{
		Title: fmt.Sprintf("Swarm evacuation sweep — %d clone domains to cold hosts, concurrency %d, %d warm peers",
			clusterDomains, drainConcurrency, swarmPeerCount),
		Columns: []string{
			"arm", "per-domain wire (MB)", "fleet wire (GB)",
			"swarm blocks", "makespan (s)", "vs single-source",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Label,
			fmt.Sprintf("%.0f", r.PerDomainWireMB),
			fmt.Sprintf("%.1f", r.FleetWireGB),
			fmt.Sprintf("%d", r.SwarmBlocks),
			fmt.Sprintf("%.0f", r.Makespan.Seconds()),
			fmt.Sprintf("%.1fx", r.Speedup),
		)
	}
	return rows, t
}
