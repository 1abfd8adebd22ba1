// Package metrics defines the measurement vocabulary of the paper's §III-A:
// downtime, disruption time, total migration time, amount of migrated data,
// and performance overhead — plus per-iteration detail and throughput time
// series for regenerating the evaluation's tables and figures.
package metrics

import (
	"fmt"
	"strings"
	"time"
)

// Iteration describes one pre-copy iteration (disk or memory).
type Iteration struct {
	Index    int           // 1-based iteration number
	Units    int           // blocks or pages transferred
	Skipped  int           // units of the iteration's set left out because they were already dirty again (they ride a later iteration or the freeze set); for pages also those left to the freeze as deltas or unchanged since last sent
	Deltas   int           // pages among Units that travelled as word deltas against the bytes last sent (memory only; Bytes counts what they cost)
	Bytes    int64         // wire bytes of the payloads
	Duration time.Duration // time the iteration took
	DirtyEnd int           // dirty units accumulated when the iteration ended
}

// Report aggregates everything a migration run measured. Scheme identifies
// the algorithm (TPM, IM, freeze-and-copy, on-demand, delta-forward) and
// Workload the driving load.
type Report struct {
	Scheme   string
	Workload string

	DiskBytes   int64 // VBD capacity
	MemoryBytes int64 // guest RAM size

	TotalTime    time.Duration // start → fully synchronized (§III-A)
	PreCopyTime  time.Duration // disk+memory pre-copy phases
	Downtime     time.Duration // VM paused → resumed
	PostCopyTime time.Duration // resume → fully synchronized

	MigratedBytes int64 // wire bytes in both directions
	MemBytesMoved int64 // memory-page wire bytes (reported separately when
	// matching the paper's Table I accounting, which counts disk data only)

	DiskIterations []Iteration
	MemIterations  []Iteration

	Retries     int   // connection failures survived by resuming the session
	ResentBytes int64 // wire bytes re-sent because a failure rewound an iteration

	DedupBlocks int // disk blocks materialized by reference (or zero-elided) instead of retransmitted
	SwarmBlocks int // disk blocks whose content arrived from swarm peers instead of the source
	DeltaBlocks int // disk blocks that travelled as COPY/LITERAL patches instead of literals

	BlocksPushed  int           // post-copy blocks pushed by the source
	BlocksPulled  int           // post-copy blocks pulled on demand
	StalePushes   int           // pushed blocks dropped (superseded by local writes)
	ReadStallTime time.Duration // total destination read time spent waiting on pulls
	IOBlockedTime time.Duration // destination I/O blocked for delta replay (Bradford baseline)

	ResidualDirty int // blocks never synchronized (on-demand baseline's residual dependency)
}

// StorageTime sums the disk pre-copy iterations and the post-copy phase —
// the "storage migration time" accounting the paper's Table II uses (its IM
// rows of 0.6-17 s cannot include the 512 MB memory pre-copy).
func (r *Report) StorageTime() time.Duration {
	total := r.PostCopyTime
	for _, it := range r.DiskIterations {
		total += it.Duration
	}
	return total
}

// RetransferredBlocks sums the disk blocks sent after the first iteration —
// the redundancy the paper reports ("6680 blocks have been retransferred").
func (r *Report) RetransferredBlocks() int {
	total := 0
	for _, it := range r.DiskIterations {
		if it.Index > 1 {
			total += it.Units
		}
	}
	return total
}

// SkippedBlocks sums the blocks disk pre-copy left out of an iteration
// because the guest had already written them again: each was sent once,
// later, instead of twice.
func (r *Report) SkippedBlocks() int { return skipped(r.DiskIterations) }

// SkippedPages is SkippedBlocks for the memory pre-copy.
func (r *Report) SkippedPages() int { return skipped(r.MemIterations) }

func skipped(its []Iteration) int {
	total := 0
	for _, it := range its {
		total += it.Skipped
	}
	return total
}

// DeltaPages sums the pages that travelled as deltas, pre-copy and freeze.
func (r *Report) DeltaPages() int {
	total := 0
	for _, it := range r.MemIterations {
		total += it.Deltas
	}
	return total
}

// DiskIterationCount returns how many disk pre-copy iterations ran.
func (r *Report) DiskIterationCount() int { return len(r.DiskIterations) }

// MigratedMB returns the amount of migrated data in the paper's MB units.
func (r *Report) MigratedMB() float64 { return float64(r.MigratedBytes) / (1 << 20) }

// String renders the report in the shape of the paper's Table I rows.
func (r *Report) String() string {
	var b strings.Builder
	if r.Workload != "" {
		fmt.Fprintf(&b, "%s / %s:\n", r.Scheme, r.Workload)
	} else {
		fmt.Fprintf(&b, "%s:\n", r.Scheme)
	}
	fmt.Fprintf(&b, "  total migration time : %.1f s\n", r.TotalTime.Seconds())
	fmt.Fprintf(&b, "  downtime             : %d ms\n", r.Downtime.Milliseconds())
	fmt.Fprintf(&b, "  amount migrated      : %.0f MB\n", r.MigratedMB())
	fmt.Fprintf(&b, "  disk iterations      : %d (retransferred %d blocks)\n",
		r.DiskIterationCount(), r.RetransferredBlocks())
	if sb, sp := r.SkippedBlocks(), r.SkippedPages(); sb+sp > 0 {
		fmt.Fprintf(&b, "  skipped (re-dirtied) : %d blocks, %d pages sent once instead of twice\n", sb, sp)
	}
	if r.DeltaPages() > 0 {
		// The last memory entry is the freeze's final page set.
		parts := make([]string, len(r.MemIterations))
		for i, it := range r.MemIterations {
			name := fmt.Sprintf("iter %d", it.Index)
			if i == len(parts)-1 {
				name = "freeze"
			}
			parts[i] = fmt.Sprintf("%s %d of %d pages in %d B", name, it.Deltas, it.Units, it.Bytes)
		}
		fmt.Fprintf(&b, "  page deltas          : %s\n", strings.Join(parts, "; "))
	}
	fmt.Fprintf(&b, "  post-copy            : %.0f ms (%d pushed, %d pulled, %d stale)\n",
		r.PostCopyTime.Seconds()*1000, r.BlocksPushed, r.BlocksPulled, r.StalePushes)
	if r.DedupBlocks > 0 {
		fmt.Fprintf(&b, "  dedup                : %d blocks by reference\n", r.DedupBlocks)
	}
	if r.SwarmBlocks > 0 {
		fmt.Fprintf(&b, "  swarm                : %d blocks fetched from peers\n", r.SwarmBlocks)
	}
	if r.DeltaBlocks > 0 {
		fmt.Fprintf(&b, "  delta                : %d blocks as patches\n", r.DeltaBlocks)
	}
	return b.String()
}

// Sample is one point of a throughput time series.
type Sample struct {
	At    time.Duration
	Value float64
}

// Series is a labelled throughput-over-time curve (Figures 5 and 6).
type Series struct {
	Label   string
	Unit    string
	Samples []Sample
}

// Add appends a sample.
func (s *Series) Add(at time.Duration, v float64) {
	s.Samples = append(s.Samples, Sample{At: at, Value: v})
}

// Mean returns the average sample value over [from, to).
func (s *Series) Mean(from, to time.Duration) float64 {
	sum, n := 0.0, 0
	for _, p := range s.Samples {
		if p.At >= from && p.At < to {
			sum += p.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Table renders labelled rows with a header, used by the bench harness to
// print paper-table lookalikes.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
