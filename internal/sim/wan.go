package sim

import (
	"fmt"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/metrics"
	"bbmig/internal/workload"
)

// The WAN return-trip delta model. WANSweep answers the delta layer's
// sizing question at paper scale: the Table II IM scenario migrates a
// whole environment out for a work session and back home afterwards, and
// the trip back crosses the same slow, latency-heavy wide-area link. The
// destination of that return trip is the original host, which still holds
// a stale copy of every block — so divergence there is dominated by
// hot-block *rewrites* (a database page updated in place, a log head
// appended) rather than fresh content. Dedup can only help when a rewrite
// restores bytes the home host already indexes; delta encoding ships just
// the changed chunks of each rewritten block against the stale copy.
//
// Link and divergence constants:
//
//   - wanUplinkBytesPerSec / wanFrameStall model the asymmetric WAN path
//     of transport.NewWAN: a ~6 MB/s uplink with an RTT-dominated
//     per-frame stall. The downlink (signature replies) is priced into
//     deltaWirePerBlock as wire bytes.
//   - wanRewriteDedupShare is the fraction of rewritten blocks whose new
//     content the home host happens to still hold (a rewrite that undid
//     itself, a template block restored) — the most dedup alone can claim.
//   - wanRewriteMatchShare is the mean fraction of a rewritten block's
//     chunks the stale home copy still matches: hot rewrites touch a
//     block's head or a few records, not the whole 4 KiB.
const (
	wanUplinkBytesPerSec = 6e6
	wanFrameStall        = 20 * time.Millisecond
	wanExtentBlocks      = 64

	wanRewriteDedupShare = 0.10
	wanRewriteMatchShare = 0.88
)

// wanHotShares are the swept hot-block-rewrite working-set sizes, as
// percentages of the VBD dirtied during the away-session dwell.
var wanHotShares = []int{11, 19, 27, 35}

// WANSweepRow is one (hot share, arm) outcome of the sweep.
type WANSweepRow struct {
	// HotPct is the percentage of the VBD rewritten during the dwell.
	HotPct int
	// Label names the arm ("literal", "dedup only", "dedup + delta").
	Label string
	// ReturnWireMB is the return trip's disk wire bytes (iteration
	// payloads, post-copy pushes, and the dirty bitmap), in MB.
	ReturnWireMB float64
	// Reduction is the wire reduction versus the literal arm at the same
	// hot share (1x for the literal arm itself).
	Reduction float64
	// DeltaBlocks is how many blocks travelled as patches.
	DeltaBlocks int
	// TripTime is the return migration's duration.
	TripTime time.Duration
}

// WANSweep runs the Table II return trip over a WAN link profile for each
// hot-rewrite share, three ways per share: literal transfer, content dedup
// alone, and dedup composed with delta encoding. The guest is idle on the
// trip home (the paper's IM scenario), so iteration 1 carries exactly the
// dwell's rewrite working set. The acceptance bar the test pins: at every
// swept share, the delta arm ships at least 3x fewer return-trip wire
// bytes than dedup alone.
func WANSweep(seed int64) ([]WANSweepRow, *metrics.Table) {
	base := Defaults(workload.Web)
	base.Seed = seed
	base.NetBytesPerSec = wanUplinkBytesPerSec
	base.FrameLatency = wanFrameStall
	base.MaxExtentBlocks = wanExtentBlocks
	base.DwellAfter = 0
	numBlocks := int(int64(base.DiskMB) << 20 / blockdev.BlockSize)

	arms := []struct {
		label string
		dedup bool
		delta bool
	}{
		{"literal", false, false},
		{"dedup only", true, false},
		{"dedup + delta", true, true},
	}
	var rows []WANSweepRow
	for _, hotPct := range wanHotShares {
		hot := numBlocks * hotPct / 100
		var literal float64
		for _, arm := range arms {
			p := base
			p.Seed = seed + int64(hotPct)
			p.Dedup = arm.dedup
			p.DedupShare = wanRewriteDedupShare
			p.Delta = arm.delta
			p.DeltaMatchShare = wanRewriteMatchShare
			fresh := bitmap.New(numBlocks)
			fresh.SetRange(0, hot)
			r := run(p, fresh, 0)
			wire := float64(r.Report.MigratedBytes)
			if arm.label == "literal" {
				literal = wire
			}
			rows = append(rows, WANSweepRow{
				HotPct:       hotPct,
				Label:        arm.label,
				ReturnWireMB: wire / 1e6,
				Reduction:    literal / wire,
				DeltaBlocks:  r.Report.DeltaBlocks,
				TripTime:     r.MigEnd - r.MigStart,
			})
		}
	}

	t := &metrics.Table{
		Title: fmt.Sprintf("WAN return-trip delta sweep — %d MB VBD home over a %.0f MB/s uplink",
			base.DiskMB, wanUplinkBytesPerSec/1e6),
		Columns: []string{
			"hot rewrites", "arm", "return wire (MB)", "reduction", "patched blocks", "trip (s)",
		},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d%%", r.HotPct),
			r.Label,
			fmt.Sprintf("%.0f", r.ReturnWireMB),
			fmt.Sprintf("%.1fx", r.Reduction),
			fmt.Sprintf("%d", r.DeltaBlocks),
			fmt.Sprintf("%.0f", r.TripTime.Seconds()),
		)
	}
	return rows, t
}
