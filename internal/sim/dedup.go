package sim

import (
	"fmt"
	"time"

	"bbmig/internal/metrics"
)

// The clone-fleet dedup model. DedupSweep answers the content-addressed
// transfer layer's sizing question at paper scale: when a maintenance drain
// must evacuate a fleet of template-provisioned domains (cloned web
// servers, golden-image guests) between hosts that already hold much of
// each other's content, how many bytes does the advert/want/reference
// protocol keep off the wire, and what does that do to the evacuation
// makespan?
//
// Content shares, calibrated to a template-provisioned VBD rather than the
// paper's hand-installed one: dedupZeroShare of a provisioned image was
// never written (zero blocks, elided without even an advert round trip) and
// dedupTemplateShare of it is template-derived content every clone shares.
// A *cold* destination — first clone to arrive — can only produce the zero
// blocks; a *warm* destination already hosting (or retaining) clone
// siblings produces the template content too, which is the steady state of
// a clone fleet being shuffled between the same hosts.
const (
	dedupZeroShare     = 0.35
	dedupTemplateShare = 0.55
)

// DedupSweepRow is one arm's outcome.
type DedupSweepRow struct {
	// Label names the arm ("literal", "dedup, cold", "dedup, warm").
	Label string
	// Share is the modelled destination-held content fraction.
	Share float64
	// PerDomainWireMB is one migration's wire bytes (disk accounting plus
	// memory pages), in MB.
	PerDomainWireMB float64
	// FleetWireGB is the whole evacuation's wire total, in GB.
	FleetWireGB float64
	// Reduction is the fleet wire reduction versus the literal arm (1x for
	// the literal arm itself).
	Reduction float64
	// DedupBlocks is one migration's reference-materialized block count.
	DedupBlocks int
	// Makespan is the evacuation's duration under the drain's wave model
	// (evacuate) at the sweet-spot concurrency.
	Makespan time.Duration
}

// DedupSweep evacuates the ClusterSweep fleet (8 paper-testbed web domains,
// uplink budget 4x one link, concurrency 4) three times: literal transfer,
// content dedup against cold destinations (only zero blocks elide), and
// content dedup against warm clone-hosting destinations (zeros plus
// template overlap). The acceptance bar the test pins: warm-fleet
// evacuation moves at least 5x fewer bytes than literal.
func DedupSweep(seed int64) ([]DedupSweepRow, *metrics.Table) {
	const concurrency = 4
	arms := []struct {
		label string
		dedup bool
		share float64
	}{
		{"literal", false, 0},
		{"dedup, cold destinations", true, dedupZeroShare},
		{"dedup, warm clone hosts", true, dedupZeroShare + dedupTemplateShare},
	}
	var rows []DedupSweepRow
	var literalFleet float64
	for _, arm := range arms {
		_, makespan, results := evacuate(seed, concurrency, func(p *Params, _ int) {
			p.Dedup, p.DedupShare = arm.dedup, arm.share
		})
		row := DedupSweepRow{Label: arm.label, Share: arm.share, Makespan: makespan, DedupBlocks: results[0].Report.DedupBlocks}
		row.PerDomainWireMB, row.FleetWireGB = fleetWire(results)
		if arm.label == "literal" {
			literalFleet = row.FleetWireGB
		}
		row.Reduction = literalFleet / row.FleetWireGB
		rows = append(rows, row)
	}

	t := &metrics.Table{
		Title: fmt.Sprintf("Clone-fleet dedup sweep — %d template-derived web domains, concurrency %d",
			clusterDomains, concurrency),
		Columns: []string{
			"arm", "held share", "per-domain wire (MB)", "fleet wire (GB)",
			"reduction", "ref blocks", "makespan (s)",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Label,
			fmt.Sprintf("%.0f%%", r.Share*100),
			fmt.Sprintf("%.0f", r.PerDomainWireMB),
			fmt.Sprintf("%.1f", r.FleetWireGB),
			fmt.Sprintf("%.1fx", r.Reduction),
			fmt.Sprintf("%d", r.DedupBlocks),
			fmt.Sprintf("%.0f", r.Makespan.Seconds()),
		)
	}
	return rows, t
}

// fleetWire sums an evacuation's wire bytes (disk accounting plus memory
// pages): the first domain's in MB, the fleet's in GB.
func fleetWire(results []*Result) (perDomainMB, fleetGB float64) {
	for i, r := range results {
		wire := float64(r.Report.MigratedBytes + r.Report.MemBytesMoved)
		fleetGB += wire / 1e9
		if i == 0 {
			perDomainMB = wire / 1e6
		}
	}
	return perDomainMB, fleetGB
}
