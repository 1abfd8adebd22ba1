package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExperimentPrintersRun smoke-runs every experiment printer except the
// slow Table III microbenchmark; each must complete without panicking.
// Output correctness is asserted in internal/sim's tests — this covers the
// rendering glue.
func TestExperimentPrintersRun(t *testing.T) {
	for name, fn := range map[string]func(int64, int){
		"table1":               table1,
		"table2":               table2,
		"fig5":                 fig5,
		"fig6":                 fig6,
		"iters":                iters,
		"locality":             locality,
		"granularity":          granularity,
		"downtime-granularity": downtimeGranularity,
		"availability":         availability,
		"schemes":              schemes,
	} {
		name, fn := name, fn
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			fn(1, 5)
		})
	}
}

// writeSnapshot writes a minimal BENCH_*.json for comparator tests.
func writeSnapshot(t *testing.T, path string, rates map[string]float64) {
	t.Helper()
	f := benchFile{Schema: "bbmig-bench/v1"}
	for name, mbps := range rates {
		f.Benchmarks = append(f.Benchmarks, benchResult{Name: name, MBPerSec: mbps})
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCompareBenchGate covers the regression comparator: within-tolerance
// drops and improvements pass, beyond-tolerance drops and missing headline
// rows fail, and non-headline rows are ignored.
func TestCompareBenchGate(t *testing.T) {
	dir := t.TempDir()
	base := dir + "/base.json"
	writeSnapshot(t, base, map[string]float64{
		"MigrateModeledLink/default-per-block": 100,
		"MigrateModeledLink/adaptive-policy":   1000,
		"SomethingElse/unrelated":              50,
	})

	ok := dir + "/ok.json"
	writeSnapshot(t, ok, map[string]float64{
		"MigrateModeledLink/default-per-block": 80,   // -20%: within 25%
		"MigrateModeledLink/adaptive-policy":   1200, // improvement
		"SomethingElse/unrelated":              1,    // ignored: not headline
	})
	if err := compareBench(ok, base, 25); err != nil {
		t.Fatalf("within-tolerance snapshot failed the gate: %v", err)
	}

	bad := dir + "/bad.json"
	writeSnapshot(t, bad, map[string]float64{
		"MigrateModeledLink/default-per-block": 70, // -30%: regression
		"MigrateModeledLink/adaptive-policy":   1000,
	})
	if err := compareBench(bad, base, 25); err == nil {
		t.Fatal("30% drop passed a 25% gate")
	}

	missing := dir + "/missing.json"
	writeSnapshot(t, missing, map[string]float64{
		"MigrateModeledLink/default-per-block": 100,
	})
	if err := compareBench(missing, base, 25); err == nil {
		t.Fatal("snapshot missing a headline benchmark passed the gate")
	}

	empty := dir + "/empty.json"
	writeSnapshot(t, empty, nil)
	if err := compareBench(base, empty, 25); err == nil {
		t.Fatal("baseline with no headline rows should fail loudly")
	}
}

// writeSnapshotV11 writes a v1.1 snapshot carrying allocation data.
func writeSnapshotV11(t *testing.T, path string, rows []benchResult) {
	t.Helper()
	f := benchFile{Schema: "bbmig-bench/v1.1", Benchmarks: rows}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCompareBenchAllocGate covers the allocs_per_op arm of the gate: a
// pre-bump v1 baseline without allocation data gates nothing, growth beyond
// tolerance fails, shrinkage and within-tolerance growth pass, and a row
// that silently loses its allocation data fails loudly.
func TestCompareBenchAllocGate(t *testing.T) {
	dir := t.TempDir()

	// Old-schema baseline: mb_per_s only. The new snapshot's extra fields
	// and bumped schema must not break the comparison.
	oldBase := dir + "/old.json"
	writeSnapshot(t, oldBase, map[string]float64{"MigrateModeledLink/default-per-block": 100})
	v11 := dir + "/v11.json"
	writeSnapshotV11(t, v11, []benchResult{
		{Name: "MigrateModeledLink/default-per-block", MBPerSec: 95, AllocsPerOp: 5000},
		{Name: "MigrateTCP/cold", MBPerSec: 900, AllocsPerOp: 2000},
	})
	if err := compareBench(v11, oldBase, 25); err != nil {
		t.Fatalf("v1.1 snapshot vs v1 baseline failed the gate: %v", err)
	}

	base := dir + "/base.json"
	writeSnapshotV11(t, base, []benchResult{
		{Name: "MigrateModeledLink/default-per-block", MBPerSec: 100, AllocsPerOp: 5000},
		{Name: "MigrateTCP/cold", MBPerSec: 900, AllocsPerOp: 2000},
		{Name: "SomethingElse/unrelated", MBPerSec: 50, AllocsPerOp: 10},
	})

	ok := dir + "/ok.json"
	writeSnapshotV11(t, ok, []benchResult{
		{Name: "MigrateModeledLink/default-per-block", MBPerSec: 100, AllocsPerOp: 6000}, // +20%: within 25%
		{Name: "MigrateTCP/cold", MBPerSec: 2000, AllocsPerOp: 100},                      // improvement
		{Name: "SomethingElse/unrelated", MBPerSec: 50, AllocsPerOp: 10000},              // ignored: not gated
	})
	if err := compareBench(ok, base, 25); err != nil {
		t.Fatalf("within-tolerance alloc growth failed the gate: %v", err)
	}

	bad := dir + "/bad.json"
	writeSnapshotV11(t, bad, []benchResult{
		{Name: "MigrateModeledLink/default-per-block", MBPerSec: 100, AllocsPerOp: 5000},
		{Name: "MigrateTCP/cold", MBPerSec: 900, AllocsPerOp: 3000}, // +50%: regression
	})
	if err := compareBench(bad, base, 25); err == nil {
		t.Fatal("50% alloc growth passed a 25% gate")
	}

	lost := dir + "/lost.json"
	writeSnapshotV11(t, lost, []benchResult{
		{Name: "MigrateModeledLink/default-per-block", MBPerSec: 100, AllocsPerOp: 5000},
		{Name: "MigrateTCP/cold", MBPerSec: 900}, // allocs_per_op vanished
	})
	if err := compareBench(lost, base, 25); err == nil {
		t.Fatal("snapshot that dropped a gated row's allocation data passed")
	}
}

// TestCompareBenchBytesGate covers the bytes_per_op arm: on the alloc-gated
// rows it is held to the same tolerance as the count, so a few large
// allocations cannot hide behind an unchanged allocs/op; a v1.1 baseline
// without the field gates nothing, and a gated row that loses it fails.
func TestCompareBenchBytesGate(t *testing.T) {
	dir := t.TempDir()
	snapshot := func(file string, dedupBytes float64) string {
		path := filepath.Join(dir, file)
		writeSnapshotV11(t, path, []benchResult{
			{Name: "MigrateModeledLink/default-per-block", MBPerSec: 100, AllocsPerOp: 5000, BytesPerOp: 2e6},
			{Name: "MigrateDedup/warm", MBPerSec: 90, AllocsPerOp: 2500, BytesPerOp: dedupBytes},
			{Name: "SomethingElse/unrelated", MBPerSec: 50, AllocsPerOp: 10, BytesPerOp: dedupBytes * 100},
		})
		return path
	}
	base := snapshot("base.json", 9e6)
	if err := compareBench(snapshot("ok.json", 10e6), base, 25); err != nil {
		t.Errorf("+11%% bytes/op failed a 25%% gate: %v", err)
	}
	if err := compareBench(snapshot("less.json", 1e6), base, 25); err != nil {
		t.Errorf("fewer bytes/op failed the gate: %v", err)
	}
	err := compareBench(snapshot("bad.json", 76e6), base, 25)
	if err == nil || !strings.Contains(err.Error(), "MigrateDedup/warm") || !strings.Contains(err.Error(), "B/op") {
		t.Errorf("76 MB/op in an unchanged allocation count: gate said %v", err)
	}
	if err := compareBench(snapshot("lost.json", 0), base, 25); err == nil || !strings.Contains(err.Error(), "bytes_per_op missing") {
		t.Errorf("a gated row without bytes_per_op: gate said %v", err)
	}
	// A v1.1 baseline carries counts only: nothing to hold the bytes to.
	if err := compareBench(snapshot("new.json", 76e6), snapshot("v11.json", 0), 25); err != nil {
		t.Errorf("bytes/op gated against a baseline that has none: %v", err)
	}
}

// TestCompareBenchCountGate: the MemDelta rows' counts repeat exactly, so they
// are held to 2 % whatever -max-regress allows the timed rows: growth of the
// byte counts fails, shrinkage passes, and delta_pages may move neither way —
// a zero baseline included.
func TestCompareBenchCountGate(t *testing.T) {
	dir := t.TempDir()
	row := func(name string, freeze, mem, deltas float64) benchResult {
		return benchResult{Name: name, MBPerSec: 60, Metrics: map[string]float64{
			"freeze_bytes": freeze, "mem_bytes": mem, "delta_pages": deltas,
		}}
	}
	headline := benchResult{Name: "MigrateModeledLink/fixed", MBPerSec: 2000, AllocsPerOp: 700}
	snapshot := func(file string, touch, rewrite benchResult) string {
		path := filepath.Join(dir, file)
		writeSnapshotV11(t, path, []benchResult{headline, touch, rewrite})
		return path
	}
	base := snapshot("base.json", row("MemDelta/word-touch", 14268, 8429056, 512), row("MemDelta/page-rewrite", 2104252, 11044992, 0))
	for _, tc := range []struct {
		name           string
		touch, rewrite benchResult
		fails          string
	}{
		{"unchanged", row("MemDelta/word-touch", 14268, 8429056, 512), row("MemDelta/page-rewrite", 2104252, 11044992, 0), ""},
		{"smaller window", row("MemDelta/word-touch", 9000, 8400000, 512), row("MemDelta/page-rewrite", 2104252, 11044992, 0), ""},
		{"window grew 3%", row("MemDelta/word-touch", 14700, 8429056, 512), row("MemDelta/page-rewrite", 2104252, 11044992, 0), "freeze_bytes"},
		{"memory bytes grew", row("MemDelta/word-touch", 14268, 8429056, 512), row("MemDelta/page-rewrite", 2104252, 11400000, 0), "mem_bytes"},
		{"deltas stopped", row("MemDelta/word-touch", 14268, 8429056, 400), row("MemDelta/page-rewrite", 2104252, 11044992, 0), "delta_pages"},
		{"deltas from nowhere", row("MemDelta/word-touch", 14268, 8429056, 512), row("MemDelta/page-rewrite", 2104252, 11044992, 3), "delta_pages"},
	} {
		err := compareBench(snapshot("new.json", tc.touch, tc.rewrite), base, 25)
		switch {
		case tc.fails == "" && err != nil:
			t.Errorf("%s: gate failed: %v", tc.name, err)
		case tc.fails != "" && (err == nil || !strings.Contains(err.Error(), tc.fails)):
			t.Errorf("%s: gate error %v, want one naming %s", tc.name, err, tc.fails)
		}
	}
}

// TestCompareBenchBadFiles: unreadable or malformed snapshots error.
func TestCompareBenchBadFiles(t *testing.T) {
	dir := t.TempDir()
	good := dir + "/good.json"
	writeSnapshot(t, good, map[string]float64{"MigrateModeledLink/x": 1})
	if err := compareBench(dir+"/absent.json", good, 25); err == nil {
		t.Fatal("missing new snapshot accepted")
	}
	badPath := dir + "/bad.json"
	if err := os.WriteFile(badPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareBench(good, badPath, 25); err == nil {
		t.Fatal("malformed baseline accepted")
	}
	wrongSchema := dir + "/schema.json"
	if err := os.WriteFile(wrongSchema, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareBench(good, wrongSchema, 25); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

// BenchmarkSuite runs the rows `bbench -json` records, under the same names,
// so a profile of one is a profile of the snapshot's row:
//
//	go test -run xxx -bench 'Suite/MigrateTCP/compressed' -benchmem -memprofile mem.out ./cmd/bbench
func BenchmarkSuite(b *testing.B) {
	for _, r := range suite(1) {
		b.Run(r.name, r.run)
	}
}

// TestFaultsPrinterRuns smoke-runs the fault-sweep printer.
func TestFaultsPrinterRuns(t *testing.T) {
	faults(1, 5)
}
