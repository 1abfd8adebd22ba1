package sim

import (
	"fmt"
	"time"

	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/clock"
	"bbmig/internal/metrics"
	"bbmig/internal/workload"
)

// This file defines one entry point per table/figure of the paper's
// evaluation (§VI). Each returns both raw results and a rendered
// metrics.Table/Series: `bbench -exp` prints the tables, the root
// bench_test.go reports the same quantities as benchmark metrics, and
// `bbench -json` snapshots the headlines. The evacuation sweeps (cluster.go,
// dedup.go, swarm.go) share one wave model, evacuate.

// TableIWorkloads lists the three §VI-B workloads in Table I column order.
func TableIWorkloads() []workload.Kind {
	return []workload.Kind{workload.Web, workload.Stream, workload.Diabolic}
}

// TableI reproduces "RESULTS FOR DIFFERENT WORKLOADS": total migration time,
// downtime, and amount of migrated data for the three workloads under
// primary TPM.
func TableI(seed int64) ([]*Result, *metrics.Table) {
	var results []*Result
	t := &metrics.Table{
		Title:   "TABLE I — results for different workloads (TPM, 39 070 MB VBD)",
		Columns: []string{"metric", "dynamic web server", "low latency server", "diabolical server"},
	}
	rows := [3][]string{
		{"Total migration time (s)"},
		{"Downtime (ms)"},
		{"Amount of migrated data (MB)"},
	}
	for _, kind := range TableIWorkloads() {
		p := Defaults(kind)
		p.Seed = seed
		r := RunTPM(p)
		results = append(results, r)
		rows[0] = append(rows[0], fmt.Sprintf("%.0f", r.Report.TotalTime.Seconds()))
		rows[1] = append(rows[1], fmt.Sprintf("%d", r.Report.Downtime.Milliseconds()))
		rows[2] = append(rows[2], fmt.Sprintf("%.0f", r.Report.MigratedMB()))
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return results, t
}

// TableII reproduces "IM RESULTS COMPARED WITH TPM": each primary result is
// followed by an incremental migration back after the dwell period.
func TableII(primary []*Result) ([]*Result, *metrics.Table) {
	t := &metrics.Table{
		Title:   "TABLE II — IM results compared with TPM",
		Columns: []string{"scheme", "workload", "migration time (s)", "amount of migrated data (MB)"},
	}
	var ims []*Result
	// Table II reports storage migration time (see Report.StorageTime).
	for _, r := range primary {
		t.AddRow("Primary TPM", r.Report.Workload,
			fmt.Sprintf("%.1f", r.Report.StorageTime().Seconds()),
			fmt.Sprintf("%.1f", r.Report.MigratedMB()))
	}
	for _, r := range primary {
		im := r.RunIM()
		ims = append(ims, im)
		t.AddRow("IM", im.Report.Workload,
			fmt.Sprintf("%.1f", im.Report.StorageTime().Seconds()),
			fmt.Sprintf("%.1f", im.Report.MigratedMB()))
	}
	return ims, t
}

// TrackingOverheadResult is one row of Table III: throughput of a Bonnie-like
// write pattern with and without block-bitmap write tracking, measured on the
// real blkback backend (not simulated — this is the one experiment that runs
// at native speed in both the paper and here).
type TrackingOverheadResult struct {
	Test            string
	NormalKBps      float64
	TrackedKBps     float64
	OverheadPercent float64
}

// TableIII measures the I/O performance overhead of the synchronization
// mechanism: every write intercepted and marked in the block-bitmap
// (§VI-C-5, "the performance overhead is less than 1 percent").
//
// The tracking cost itself — the extra work blkback does per intercepted
// write — is measured for real on this machine, by running the same write
// stream through the actual Backend with tracking off and on and taking the
// per-operation time difference. That delta is then applied to the paper's
// SATA2 baseline throughputs (Table III "Normal" row: a 4 KiB write costs
// 42-157 µs on their disk), because a RAM-backed test device would make the
// denominator, not the mechanism, the story: nanosecond "disk" writes
// inflate a ~20 ns bitmap update into a fake double-digit overhead.
func TableIII(blocks int, opsPerTest int) ([]TrackingOverheadResult, *metrics.Table) {
	dev := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	buf := make([]byte, blockdev.BlockSize)
	rbuf := make([]byte, blockdev.BlockSize)

	// measure returns the best-of-3 mean ns/op of the op stream.
	measure := func(tracked bool, op func(b *blkback.Backend, i int)) float64 {
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			b := blkback.NewBackend(dev, 1)
			if tracked {
				b.StartTracking()
			}
			clk := clock.NewReal()
			start := clk.Now()
			for i := 0; i < opsPerTest; i++ {
				op(b, i)
			}
			ns := float64(clk.Now()-start) / float64(opsPerTest)
			if rep == 0 || ns < best {
				best = ns
			}
		}
		return best
	}

	tests := []struct {
		name      string
		paperKBps float64 // Table III "Normal" row (SATA2 baseline)
		op        func(b *blkback.Backend, i int)
	}{
		// putc: sequential single-block writes (char-at-a-time buffered)
		{"putc", 47740, func(b *blkback.Backend, i int) {
			b.Submit(blockdev.Request{Op: blockdev.Write, Block: i % blocks, Domain: 1, Data: buf})
		}},
		// write(2): sequential block writes with stride (block syscalls)
		{"write(2)", 96122, func(b *blkback.Backend, i int) {
			b.Submit(blockdev.Request{Op: blockdev.Write, Block: (i * 4) % blocks, Domain: 1, Data: buf})
		}},
		// rewrite: read-modify-write of the same region
		{"rewrite", 26125, func(b *blkback.Backend, i int) {
			n := i % (blocks / 2)
			b.Submit(blockdev.Request{Op: blockdev.Read, Block: n, Domain: 1, Data: rbuf})
			b.Submit(blockdev.Request{Op: blockdev.Write, Block: n, Domain: 1, Data: buf})
		}},
	}
	var results []TrackingOverheadResult
	t := &metrics.Table{
		Title:   "TABLE III — I/O performance comparison (KB/s)",
		Columns: []string{"", "putc", "write(2)", "rewrite"},
	}
	normalRow := []string{"Normal"}
	trackedRow := []string{"With writes tracked"}
	const blockKB = float64(blockdev.BlockSize) / 1024
	for _, tc := range tests {
		normalNs := measure(false, tc.op)
		trackedNs := measure(true, tc.op)
		deltaNs := trackedNs - normalNs
		if deltaNs < 0 {
			deltaNs = 0 // measurement noise; tracking cannot speed writes up
		}
		// paper baseline: time one 4 KiB write takes on the SATA2 disk
		baselineNs := blockKB / tc.paperKBps * 1e9
		trackedKBps := blockKB / ((baselineNs + deltaNs) / 1e9)
		overhead := (tc.paperKBps - trackedKBps) / tc.paperKBps * 100
		results = append(results, TrackingOverheadResult{
			Test: tc.name, NormalKBps: tc.paperKBps, TrackedKBps: trackedKBps, OverheadPercent: overhead,
		})
		normalRow = append(normalRow, fmt.Sprintf("%.0f", tc.paperKBps))
		trackedRow = append(trackedRow, fmt.Sprintf("%.0f", trackedKBps))
	}
	t.AddRow(normalRow...)
	t.AddRow(trackedRow...)
	return results, t
}

// Fig5 reproduces "Throughput of the SPECweb_Banking server while migration":
// the web workload's achieved throughput across the migration window shows no
// noticeable drop.
func Fig5(seed int64) *Result {
	p := Defaults(workload.Web)
	p.Seed = seed
	p.DwellAfter = 15 * time.Minute // figure extends past the migration
	return RunTPM(p)
}

// Fig6 reproduces "Impact on Bonnie++ throughput" plus §VI-C-3's rate-limited
// variant: unlimited migration roughly halves Bonnie++ throughput in its
// disk-bound phases; capping the migration bandwidth roughly halves the
// impact while lengthening pre-copy on the order of a third.
func Fig6(seed int64) (unlimited, limited *Result) {
	p := Defaults(workload.Diabolic)
	p.Seed = seed
	p.DwellAfter = 10 * time.Minute
	unlimited = RunTPM(p)

	pl := p
	pl.RateLimit = p.NetBytesPerSec * 0.70 // the paper "simply limits" the rate
	limited = RunTPM(pl)
	return unlimited, limited
}

// LocalityStats reproduces the §IV-A-2 write-locality measurements that
// motivate bitmap synchronization over delta forwarding.
func LocalityStats() *metrics.Table {
	t := &metrics.Table{
		Title:   "Write locality (§IV-A-2): writes that rewrite previously written blocks",
		Columns: []string{"workload", "writes", "unique blocks", "rewrite %", "paper"},
	}
	nb := Defaults(workload.Web).DiskMB << 20 / blockdev.BlockSize
	cases := []struct {
		kind    workload.Kind
		horizon time.Duration
		paper   string
	}{
		{workload.Kernel, 10 * time.Minute, "~11%"},
		{workload.Web, 30 * time.Minute, "25.2%"},
		{workload.Diabolic, 0, "35.6%"},
	}
	for _, c := range cases {
		g := workload.New(c.kind, nb, 1)
		horizon := c.horizon
		if d, ok := g.(*workload.Diabolical); ok {
			horizon = d.CycleDuration()
		}
		st := workload.Locality(g, horizon)
		t.AddRow(c.kind.String(), fmt.Sprintf("%d", st.Writes),
			fmt.Sprintf("%d", st.UniqueBlocks),
			fmt.Sprintf("%.1f%%", st.RewriteRatio*100), c.paper)
	}
	return t
}

// IterationDetail renders the §VI-C-1..3 per-iteration narrative (pre-copy
// iteration count, retransferred blocks, post-copy duration and pull count)
// for one workload.
func IterationDetail(r *Result) *metrics.Table {
	t := &metrics.Table{
		Title:   fmt.Sprintf("Pre-copy iterations — %s", r.Report.Workload),
		Columns: []string{"iteration", "blocks sent", "duration (s)", "dirty at end"},
	}
	for _, it := range r.Report.DiskIterations {
		t.AddRow(fmt.Sprintf("%d", it.Index), fmt.Sprintf("%d", it.Units),
			fmt.Sprintf("%.2f", it.Duration.Seconds()), fmt.Sprintf("%d", it.DirtyEnd))
	}
	t.AddRow("post-copy", fmt.Sprintf("%d pushed / %d pulled", r.Report.BlocksPushed, r.Report.BlocksPulled),
		fmt.Sprintf("%.3f", r.Report.PostCopyTime.Seconds()), "0")
	return t
}

// GranularityAblation compares bitmap memory cost at 512 B vs 4 KiB
// granularity for a given disk size, the §IV-A-2 sizing argument.
func GranularityAblation(diskBytes int64) *metrics.Table {
	t := &metrics.Table{
		Title:   "Bitmap granularity ablation (§IV-A-2)",
		Columns: []string{"granularity", "bits", "bitmap size"},
	}
	for _, g := range []struct {
		name string
		unit int64
	}{{"512 B sector", 512}, {"4 KiB block", blockdev.BlockSize}} {
		bits := diskBytes / g.unit
		t.AddRow(g.name, fmt.Sprintf("%d", bits), fmt.Sprintf("%.2f MiB", float64(bits/8)/(1<<20)))
	}
	return t
}

// DowntimeVsGranularity quantifies the §IV-A-2 granularity choice in
// downtime terms: the paper's freeze-and-copy phase transfers the whole
// block-bitmap densely, so a 512 B-sector bitmap (8x larger) directly
// inflates every downtime in Table I. The sweep reprices the baseline run's
// freeze window with each granularity's dense bitmap; the first row is the
// run itself, whose bitmap travels in the engine's run-length encoding and
// costs what the freeze set costs at any granularity.
func DowntimeVsGranularity(kind workload.Kind, seed int64) *metrics.Table {
	p := Defaults(kind)
	p.Seed = seed
	p.DwellAfter = time.Minute
	r := RunTPM(p)
	xfer := func(bytes float64) time.Duration {
		return time.Duration(bytes / p.NetBytesPerSec * float64(time.Second))
	}
	// remove the run's own bitmap cost to get the bitmap-free floor
	encoded := float64(r.FreezeBitmapBytes)
	floor := r.Report.Downtime - xfer(encoded)

	t := &metrics.Table{
		Title:   fmt.Sprintf("Downtime vs bitmap granularity — %s (§IV-A-2)", kind),
		Columns: []string{"granularity", "bitmap size (MiB)", "bitmap transfer", "downtime"},
	}
	row := func(name string, bmBytes float64) {
		t.AddRow(name,
			fmt.Sprintf("%.2f", bmBytes/(1<<20)),
			fmt.Sprintf("%d ms", xfer(bmBytes).Milliseconds()),
			fmt.Sprintf("%d ms", (floor+xfer(bmBytes)).Milliseconds()))
	}
	row("run-length (engine)", encoded)
	for _, g := range []struct {
		name string
		unit int64
	}{{"4 KiB block", blockdev.BlockSize}, {"1 KiB", 1024}, {"512 B sector", 512}} {
		bits := int64(p.DiskMB) << 20 / g.unit
		row(g.name, float64(bits/8+16))
	}
	return t
}

// SchemeComparison quantifies §II's related-work arguments at paper scale:
// for one workload it derives the headline metrics of every scheme the paper
// discusses — freeze-and-copy (ISR/Collective), pure on-demand fetching,
// Bradford-style delta forward-and-replay, and TPM — from the same
// calibrated testbed model. The orderings (who wins on downtime, who keeps a
// residual dependency, who blocks I/O after resume) are the paper's
// qualitative claims made numeric.
func SchemeComparison(kind workload.Kind, seed int64) *metrics.Table {
	p := Defaults(kind)
	p.Seed = seed
	p.DwellAfter = time.Minute
	tpm := RunTPM(p)

	diskBytes := float64(int64(p.DiskMB) << 20)
	memBytes := float64(int64(p.MemMB) << 20)
	net := p.NetBytesPerSec

	// Freeze-and-copy: one copy, VM frozen throughout (§II-B, ISR).
	fcDowntime := time.Duration((diskBytes + memBytes) / net * float64(time.Second))

	// On-demand: downtime like shared-storage migration (memory only), but
	// the source dependency never ends (§II-B). Residual dependency after
	// one dwell period = blocks never read or written on the destination.
	onDemandDowntime := tpm.Report.Downtime // same freeze content minus the bitmap
	touched := tpm.FreshBlocks()            // proxy: the workload's working set
	numBlocks := p.DiskMB << 20 / blockdev.BlockSize
	residual := numBlocks - touched

	// Delta forward-and-replay (Bradford): downtime like shared-storage,
	// but after resume guest I/O blocks until the queued deltas replay.
	// Delta volume = every write during the full-disk pass, redundancy
	// included; replay at disk speed.
	g := workload.New(kind, numBlocks, seed)
	copyDur := time.Duration(diskBytes / net * float64(time.Second))
	st := workload.Locality(g, copyDur)
	deltaBytes := float64(st.Writes) * blockdev.BlockSize
	ioBlocked := time.Duration(deltaBytes / p.DiskBytesPerSec * float64(time.Second))
	redundantMB := float64(st.Rewrites) * blockdev.BlockSize / (1 << 20)

	t := &metrics.Table{
		Title:   fmt.Sprintf("Scheme comparison at paper scale — %s (§II)", kind),
		Columns: []string{"scheme", "downtime", "post-resume I/O block", "residual dependency", "redundant data"},
	}
	t.AddRow("freeze-and-copy (ISR)", fmtDur(fcDowntime), "none", "none", "none")
	t.AddRow("on-demand fetching", fmtDur(onDemandDowntime), "per-read faults",
		fmt.Sprintf("%d blocks, unbounded", residual), "none")
	t.AddRow("delta forward (Bradford)", fmtDur(onDemandDowntime), fmtDur(ioBlocked), "none",
		fmt.Sprintf("%.0f MB rewritten deltas", redundantMB))
	t.AddRow("TPM (this paper)", fmtDur(tpm.Report.Downtime),
		fmt.Sprintf("pull-on-read for %v", tpm.Report.PostCopyTime.Round(time.Millisecond)),
		fmt.Sprintf("ends after %v", tpm.Report.PostCopyTime.Round(time.Millisecond)), "none")
	return t
}

func fmtDur(d time.Duration) string {
	if d >= time.Second {
		return fmt.Sprintf("%.1f s", d.Seconds())
	}
	return fmt.Sprintf("%d ms", d.Milliseconds())
}

// AdaptiveSweep compares the transfer policies on a latency-modelled link
// (per-frame stall 150 µs, a syscall-plus-wakeup flush): the paper's fixed
// per-block format, a hand-tuned fixed 64-block extent, and the adaptive
// slow-start that core.AdaptivePolicy implements. The adaptive row must at
// least match the hand-tuned one without anyone picking the constant.
func AdaptiveSweep(seed int64) ([]*Result, *metrics.Table) {
	t := &metrics.Table{
		Title:   "Transfer policy sweep — web workload, per-frame stall 150 µs",
		Columns: []string{"policy", "total time (s)", "precopy (s)", "migrated (MB)"},
	}
	var results []*Result
	for _, c := range []struct {
		name     string
		extent   int
		adaptive bool
	}{
		{"default (per-block)", 1, false},
		{"fixed 64-block extents", 64, false},
		{"adaptive slow-start", 1, true},
	} {
		p := Defaults(workload.Web)
		p.Seed = seed
		p.MaxExtentBlocks = c.extent
		p.AdaptiveExtents = c.adaptive
		p.FrameLatency = 150 * time.Microsecond
		p.DwellAfter = time.Minute
		r := RunTPM(p)
		results = append(results, r)
		t.AddRow(c.name,
			fmt.Sprintf("%.0f", r.Report.TotalTime.Seconds()),
			fmt.Sprintf("%.0f", r.Report.PreCopyTime.Seconds()),
			fmt.Sprintf("%.0f", r.Report.MigratedMB()))
	}
	return results, t
}

// FaultSweep quantifies what resumable migration buys at paper scale: a
// 10-second link outage is injected at several points of a web-workload TPM
// migration, and the resumed run (re-send only the interrupted iteration,
// the engine's journal semantics) is compared against the naive
// fail-and-restart alternative (everything transferred before the cut is
// wasted, plus a full second migration). Wire totals count disk payloads,
// memory pages, and re-sent bytes.
func FaultSweep(seed int64) ([]*Result, *metrics.Table) {
	t := &metrics.Table{
		Title: "Fault sweep — web workload, 10 s link outage, resume vs restart",
		Columns: []string{
			"outage at", "resume total (s)", "resume wire (MB)", "re-sent (MB)",
			"restart total (s)", "restart wire (MB)", "wire saved",
		},
	}
	base := Defaults(workload.Web)
	base.Seed = seed
	base.DwellAfter = time.Minute
	clean := RunTPM(base)
	cleanWire := float64(clean.Report.MigratedBytes + clean.Report.MemBytesMoved)
	cleanTime := (clean.MigEnd - clean.MigStart).Seconds()
	const outage = 10 * time.Second

	var results []*Result
	for _, frac := range []float64{0.25, 0.50, 0.75} {
		p := base
		p.OutageAt = clean.MigStart + time.Duration(frac*float64(clean.MigEnd-clean.MigStart))
		p.OutageDuration = outage
		r := RunTPM(p)
		results = append(results, r)
		resumeWire := float64(r.Report.MigratedBytes+r.Report.MemBytesMoved+r.Report.ResentBytes) / 1e6
		// Restart arm: the work up to the cut is wasted, then a full
		// migration re-runs after the outage.
		restartWire := (frac*cleanWire + cleanWire) / 1e6
		restartTime := frac*cleanTime + outage.Seconds() + cleanTime
		saved := (1 - resumeWire/restartWire) * 100
		t.AddRow(
			fmt.Sprintf("%.0f%% (%.0f s)", frac*100, frac*cleanTime),
			fmt.Sprintf("%.0f", (r.MigEnd-r.MigStart).Seconds()),
			fmt.Sprintf("%.0f", resumeWire),
			fmt.Sprintf("%.1f", float64(r.Report.ResentBytes)/1e6),
			fmt.Sprintf("%.0f", restartTime),
			fmt.Sprintf("%.0f", restartWire),
			fmt.Sprintf("%.0f%%", saved),
		)
	}
	return results, t
}
