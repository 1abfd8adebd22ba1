package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestRetransferredBlocks(t *testing.T) {
	r := Report{
		DiskIterations: []Iteration{
			{Index: 1, Units: 10000},
			{Index: 2, Units: 6000},
			{Index: 3, Units: 680},
		},
	}
	if got := r.RetransferredBlocks(); got != 6680 {
		t.Fatalf("RetransferredBlocks = %d", got)
	}
	if r.DiskIterationCount() != 3 {
		t.Fatal("iteration count wrong")
	}
}

func TestMigratedMB(t *testing.T) {
	r := Report{MigratedBytes: 39097 << 20}
	if got := r.MigratedMB(); got != 39097 {
		t.Fatalf("MigratedMB = %f", got)
	}
}

func TestReportString(t *testing.T) {
	r := Report{
		Scheme:        "TPM",
		Workload:      "web",
		TotalTime:     796 * time.Second,
		Downtime:      60 * time.Millisecond,
		MigratedBytes: 100 << 20,
		BlocksPushed:  61,
		BlocksPulled:  1,
	}
	s := r.String()
	for _, want := range []string{"TPM", "web", "796.0 s", "60 ms", "100 MB", "61 pushed, 1 pulled"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report %q missing %q", s, want)
		}
	}
	if strings.Contains(s, "page deltas") {
		t.Fatalf("report %q mentions page deltas although none were sent", s)
	}
	r.MemIterations = []Iteration{
		{Index: 1, Units: 2048, Bytes: 8415232},
		{Index: 2, Units: 0, Skipped: 512},
		{Index: 3, Units: 512, Deltas: 512, Bytes: 13824},
	}
	if r.DeltaPages() != 512 {
		t.Fatalf("DeltaPages = %d", r.DeltaPages())
	}
	if want := "iter 1 0 of 2048 pages in 8415232 B; iter 2 0 of 0 pages in 0 B; freeze 512 of 512 pages in 13824 B"; !strings.Contains(r.String(), want) {
		t.Fatalf("report %q missing %q", r.String(), want)
	}
}

func TestSeriesStats(t *testing.T) {
	var s Series
	s.Label, s.Unit = "throughput", "MB/s"
	for i := 0; i < 10; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i))
	}
	if got := s.Mean(0, 10*time.Second); got != 4.5 {
		t.Fatalf("Mean = %f", got)
	}
	if got := s.Mean(2*time.Second, 4*time.Second); got != 2.5 {
		t.Fatalf("windowed Mean = %f", got)
	}
	if got := s.Mean(20*time.Second, 30*time.Second); got != 0 {
		t.Fatalf("empty Mean = %f", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{
		Title:   "TABLE I",
		Columns: []string{"metric", "web", "stream"},
	}
	tb.AddRow("total (s)", "796", "798")
	tb.AddRow("downtime (ms)", "60", "62")
	out := tb.String()
	if !strings.Contains(out, "TABLE I") || !strings.Contains(out, "downtime (ms)") {
		t.Fatalf("table output %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	// columns aligned: header and first row start of col2 must match
	hdr, row := lines[1], lines[3]
	if strings.Index(hdr, "web") != strings.Index(row, "796") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestStorageTimeSumsDiskPhases(t *testing.T) {
	r := Report{
		PostCopyTime: 500 * time.Millisecond,
		DiskIterations: []Iteration{
			{Duration: 10 * time.Second},
			{Duration: 2 * time.Second},
		},
		MemIterations: []Iteration{{Duration: time.Hour}},
	}
	if got := r.StorageTime(); got != 12*time.Second+500*time.Millisecond {
		t.Fatalf("StorageTime = %v", got)
	}
}
