package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the experiment printers' golden renders")

// TestExperimentPrintersRun renders every experiment printer except the
// wall-clock Table III microbenchmark and holds each render byte for byte to
// testdata/<name>.golden (rewrite them with -update-golden). The simulator is
// deterministic, so any change to a printed table is a change to the model;
// each renders at bbench's default flags but the fleet sweep, which runs
// at 40 hosts x 2 000 domains.
func TestExperimentPrintersRun(t *testing.T) {
	fleetHosts, fleetDomains = 40, 2000
	for _, e := range experiments {
		if e.name == "table3" {
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			e.run(&out, 1, 40)
			path := filepath.Join("testdata", e.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden missing (run with -update-golden to create): %v", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("-exp %s render differs from %s:\n--- got ---\n%s--- want ---\n%s", e.name, path, out.Bytes(), want)
			}
		})
	}
}

// writeSnapshot writes a minimal v1 BENCH_*.json of allocs/op per row for
// comparator tests.
func writeSnapshot(t *testing.T, path string, allocs map[string]float64) {
	t.Helper()
	f := benchFile{Schema: "bbmig-bench/v1"}
	for name, n := range allocs {
		f.Benchmarks = append(f.Benchmarks, benchResult{Name: name, AllocsPerOp: n})
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
// growth and improvements pass, beyond-tolerance growth and missing gated
// rows fail, ungated rows are ignored, and a baseline that carries nothing
// gated — MB/s alone included, the wall clock of another box — fails loudly.
func TestCompareBenchGate(t *testing.T) {
	dir := t.TempDir()
	base := dir + "/base.json"
	writeSnapshot(t, base, map[string]float64{
		"MigrateTCP/per-block":    1000,
		"MigrateTCP/cold":         2000,
		"SomethingElse/unrelated": 50,
	})

	ok := dir + "/ok.json"
	writeSnapshot(t, ok, map[string]float64{
		"MigrateTCP/per-block":    1200,   // +20%: within 25%
		"MigrateTCP/cold":         1500,   // improvement
		"SomethingElse/unrelated": 100000, // ignored: not gated
	})
	if err := compareBench(ok, base, 25); err != nil {
		t.Fatalf("within-tolerance snapshot failed the gate: %v", err)
	}

	bad := dir + "/bad.json"
	writeSnapshot(t, bad, map[string]float64{
		"MigrateTCP/per-block": 1300, // +30%: regression
		"MigrateTCP/cold":      2000,
	})
	if err := compareBench(bad, base, 25); err == nil {
		t.Fatal("30% growth passed a 25% gate")
	}

	missing := dir + "/missing.json"
	writeSnapshot(t, missing, map[string]float64{
		"MigrateTCP/per-block": 1000,
	})
	if err := compareBench(missing, base, 25); err == nil {
		t.Fatal("snapshot missing a gated row passed the gate")
	}

	empty := dir + "/empty.json"
	writeSnapshot(t, empty, nil)
	if err := compareBench(base, empty, 25); err == nil {
		t.Fatal("baseline with no gated rows should fail loudly")
	}
	rates := dir + "/rates.json"
	writeSnapshotV11(t, rates, []benchResult{{Name: "MigrateTCP/cold", MBPerSec: 900}})
	if err := compareBench(rates, rates, 25); err == nil {
		t.Fatal("a baseline of MB/s alone gated something")
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

	// Old-schema baseline: one row, no v1.1 rows. The new snapshot's extra
	// row and bumped schema must not break the comparison.
	oldBase := dir + "/old.json"
	writeSnapshot(t, oldBase, map[string]float64{"MigrateTCP/per-block": 5000})
	v11 := dir + "/v11.json"
	writeSnapshotV11(t, v11, []benchResult{
		{Name: "MigrateTCP/per-block", AllocsPerOp: 4750},
		{Name: "MigrateTCP/cold", AllocsPerOp: 2000},
	})
	if err := compareBench(v11, oldBase, 25); err != nil {
		t.Fatalf("v1.1 snapshot vs v1 baseline failed the gate: %v", err)
	}

	base := dir + "/base.json"
	writeSnapshotV11(t, base, []benchResult{
		{Name: "MigrateTCP/per-block", AllocsPerOp: 5000},
		{Name: "MigrateTCP/cold", AllocsPerOp: 2000},
		{Name: "SomethingElse/unrelated", AllocsPerOp: 10},
	})

	ok := dir + "/ok.json"
	writeSnapshotV11(t, ok, []benchResult{
		{Name: "MigrateTCP/per-block", AllocsPerOp: 6000},   // +20%: within 25%
		{Name: "MigrateTCP/cold", AllocsPerOp: 100},         // improvement
		{Name: "SomethingElse/unrelated", AllocsPerOp: 1e4}, // ignored: not gated
	})
	if err := compareBench(ok, base, 25); err != nil {
		t.Fatalf("within-tolerance alloc growth failed the gate: %v", err)
	}

	bad := dir + "/bad.json"
	writeSnapshotV11(t, bad, []benchResult{
		{Name: "MigrateTCP/per-block", AllocsPerOp: 5000},
		{Name: "MigrateTCP/cold", AllocsPerOp: 3000}, // +50%: regression
	})
	if err := compareBench(bad, base, 25); err == nil {
		t.Fatal("50% alloc growth passed a 25% gate")
	}

	lost := dir + "/lost.json"
	writeSnapshotV11(t, lost, []benchResult{
		{Name: "MigrateTCP/per-block", AllocsPerOp: 5000},
		{Name: "MigrateTCP/cold", BytesPerOp: 1e6}, // allocs_per_op vanished
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
			{Name: "MigrateTCP/per-block", AllocsPerOp: 5000, BytesPerOp: 2e6},
			{Name: "MigrateDedup/warm", AllocsPerOp: 2500, BytesPerOp: dedupBytes},
			{Name: "SomethingElse/unrelated", AllocsPerOp: 10, BytesPerOp: dedupBytes * 100},
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
		return benchResult{Name: name, Metrics: map[string]float64{
			"freeze_bytes": freeze, "mem_bytes": mem, "delta_pages": deltas,
		}}
	}
	headline := benchResult{Name: "MigrateTCP/cold", AllocsPerOp: 700}
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

// TestCompareBenchWireShareGate: wire_share is a count, held to two
// hundredths on the TCP rows whatever -max-regress allows:
// a migration that stops eliding zero extents fails, one that moves fewer
// bytes passes.
func TestCompareBenchWireShareGate(t *testing.T) {
	dir := t.TempDir()
	snapshot := func(file string, share float64) string {
		path := filepath.Join(dir, file)
		writeSnapshotV11(t, path, []benchResult{
			{Name: "MigrateTCP/cold", AllocsPerOp: 2000, Metrics: map[string]float64{"wire_share": share}},
			{Name: "MigrateTCP/striped4", AllocsPerOp: 700, Metrics: map[string]float64{"wire_share": share}},
		})
		return path
	}
	base := snapshot("base.json", 0.3753)
	if err := compareBench(snapshot("same.json", 0.3753), base, 25); err != nil {
		t.Errorf("unchanged wire_share failed the gate: %v", err)
	}
	if err := compareBench(snapshot("less.json", 0.2), base, 25); err != nil {
		t.Errorf("fewer wire bytes failed the gate: %v", err)
	}
	if err := compareBench(snapshot("literal.json", 1.0003), base, 25); err == nil || !strings.Contains(err.Error(), "wire_share") {
		t.Errorf("zero extents sent literally again: gate said %v", err)
	}
}

// TestCompareBenchSigGate: sig_bytes_per_block is a count, held like
// wire_share: a WAN row whose signature exchange grows back toward a record
// per chunk fails, a thinner one passes.
func TestCompareBenchSigGate(t *testing.T) {
	dir := t.TempDir()
	snapshot := func(file string, sig float64) string {
		path := filepath.Join(dir, file)
		writeSnapshotV11(t, path, []benchResult{
			{Name: "MigrateWAN/delta-back", AllocsPerOp: 480, Metrics: map[string]float64{"sig_bytes_per_block": sig}},
		})
		return path
	}
	base := snapshot("base.json", 134.2)
	if err := compareBench(snapshot("same.json", 134.2), base, 25); err != nil {
		t.Errorf("unchanged sig_bytes_per_block failed the gate: %v", err)
	}
	if err := compareBench(snapshot("less.json", 100), base, 25); err != nil {
		t.Errorf("a thinner signature failed the gate: %v", err)
	}
	if err := compareBench(snapshot("unhinted.json", 386.1), base, 25); err == nil || !strings.Contains(err.Error(), "sig_bytes_per_block") {
		t.Errorf("every chunk recorded again: gate said %v", err)
	}
}

// TestCompareBenchPoolSlackGate: pool_slack is a count, held like
// writes_per_frame on the TCP rows: a change that hands out capacity further
// above what the engine asks (headroom on the one-block classes, an inflater
// that grows past the class it fills) fails, one that hands out less passes.
func TestCompareBenchPoolSlackGate(t *testing.T) {
	dir := t.TempDir()
	snapshot := func(file string, slack float64) string {
		path := filepath.Join(dir, file)
		writeSnapshotV11(t, path, []benchResult{
			{Name: "MigrateTCP/cold", AllocsPerOp: 975, Metrics: map[string]float64{"pool_slack": slack}},
			{Name: "MigrateTCP/compressed", AllocsPerOp: 20104, Metrics: map[string]float64{"pool_slack": slack}},
		})
		return path
	}
	base := snapshot("base.json", 1.031)
	if err := compareBench(snapshot("same.json", 1.031), base, 25); err != nil {
		t.Errorf("unchanged pool_slack failed the gate: %v", err)
	}
	if err := compareBench(snapshot("tighter.json", 1.0), base, 25); err != nil {
		t.Errorf("a tighter pool failed the gate: %v", err)
	}
	err := compareBench(snapshot("doubled.json", 1.2), base, 25)
	if err == nil || !strings.Contains(err.Error(), "MigrateTCP/cold") || !strings.Contains(err.Error(), "MigrateTCP/compressed") {
		t.Errorf("wider classes: gate said %v", err)
	}
}

// TestCompareBenchRoundTripGate: round_trips_per_extent is a count, held like
// wire_share on the WAN and dedup rows: a source that flushes and waits on
// every probe's reply again fails, one that waits less passes.
func TestCompareBenchRoundTripGate(t *testing.T) {
	dir := t.TempDir()
	snapshot := func(file string, rt float64) string {
		path := filepath.Join(dir, file)
		writeSnapshotV11(t, path, []benchResult{
			{Name: "MigrateWAN/delta-back", AllocsPerOp: 480, Metrics: map[string]float64{"round_trips_per_extent": rt}},
			{Name: "MigrateDedup/warm", AllocsPerOp: 700, Metrics: map[string]float64{"round_trips_per_extent": rt}},
		})
		return path
	}
	base := snapshot("base.json", 0.15)
	if err := compareBench(snapshot("same.json", 0.15), base, 25); err != nil {
		t.Errorf("unchanged round_trips_per_extent failed the gate: %v", err)
	}
	if err := compareBench(snapshot("fewer.json", 0.05), base, 25); err != nil {
		t.Errorf("fewer round trips failed the gate: %v", err)
	}
	err := compareBench(snapshot("serial.json", 1.1), base, 25)
	if err == nil || !strings.Contains(err.Error(), "MigrateWAN/delta-back") || !strings.Contains(err.Error(), "MigrateDedup/warm") {
		t.Errorf("a flush per probe again: gate said %v", err)
	}
}

// TestCompareBenchHashGate: hashes_per_block and src_hashes_per_block are
// counts, held like wire_share: a dedup destination whose index, or a source
// whose adverts, hash more per block fails.
func TestCompareBenchHashGate(t *testing.T) {
	dir := t.TempDir()
	for _, field := range []string{"hashes_per_block", "src_hashes_per_block"} {
		snapshot := func(file string, hashes float64) string {
			path := filepath.Join(dir, field+file)
			writeSnapshotV11(t, path, []benchResult{
				{Name: "MigrateDedup/warm", AllocsPerOp: 700, Metrics: map[string]float64{field: hashes}},
			})
			return path
		}
		base := snapshot("base.json", 0.875)
		if err := compareBench(snapshot("same.json", 0.875), base, 25); err != nil {
			t.Errorf("unchanged %s failed the gate: %v", field, err)
		}
		if err := compareBench(snapshot("rehash.json", 1.75), base, 25); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s twice as high: gate said %v", field, err)
		}
	}
}

// TestCompareBenchRefShareGate: ref_share is a share of blocks, held like
// wire_share the other way: a shared index that goes cold by the third
// migration fails.
func TestCompareBenchRefShareGate(t *testing.T) {
	dir := t.TempDir()
	snapshot := func(file string, share float64) string {
		path := filepath.Join(dir, file)
		writeSnapshotV11(t, path, []benchResult{
			{Name: "MigrateDedup/third", AllocsPerOp: 700, Metrics: map[string]float64{"ref_share": share}},
		})
		return path
	}
	base := snapshot("base.json", 1)
	if err := compareBench(snapshot("same.json", 1), base, 25); err != nil {
		t.Errorf("unchanged ref_share failed the gate: %v", err)
	}
	if err := compareBench(snapshot("cold.json", 0.25), base, 25); err == nil || !strings.Contains(err.Error(), "ref_share") {
		t.Errorf("an index gone cold: gate said %v", err)
	}
}

// TestCompareBenchSwarmSweepGate: the simulated swarm sweep's wire bytes are
// held to 2 % and its speedups to -max-regress, as the fleet sweep's are.
func TestCompareBenchSwarmSweepGate(t *testing.T) {
	dir := t.TempDir()
	snapshot := func(file string, gb, speedup float64) string {
		path := filepath.Join(dir, file)
		writeSnapshotV11(t, path, []benchResult{
			{Name: "SimSwarmSweep/swarm", Metrics: map[string]float64{"fleet_wire_gb": gb, "speedup": speedup}},
		})
		return path
	}
	base := snapshot("base.json", 39.8, 3.39)
	if err := compareBench(snapshot("same.json", 39.8, 3.39), base, 25); err != nil {
		t.Errorf("an unchanged sweep failed the gate: %v", err)
	}
	if err := compareBench(snapshot("heavier.json", 41.5, 3.39), base, 25); err == nil || !strings.Contains(err.Error(), "fleet_wire_gb") {
		t.Errorf("4 %% more wire bytes: gate said %v", err)
	}
	if err := compareBench(snapshot("slower.json", 39.8, 2), base, 25); err == nil || !strings.Contains(err.Error(), "speedup") {
		t.Errorf("a speedup down by 40 %%: gate said %v", err)
	}
}

// TestCompareBenchDeviceGate: dev_calls_per_block and read_share are counts,
// held like wire_share on the TCP and device rows: a migration that goes back
// to one device request per block, or reads the never-written extents it can
// name, fails.
func TestCompareBenchDeviceGate(t *testing.T) {
	dir := t.TempDir()
	snapshot := func(file string, calls, read float64) string {
		path := filepath.Join(dir, file)
		writeSnapshotV11(t, path, []benchResult{
			{Name: "MigrateTCP/cold", AllocsPerOp: 2000, Metrics: map[string]float64{"dev_calls_per_block": calls, "read_share": read}},
			{Name: "MigrateDev/file-extent/workers-1", AllocsPerOp: 300, Metrics: map[string]float64{"dev_calls_per_block": calls}},
		})
		return path
	}
	base := snapshot("base.json", 0.0209, 0.3359)
	if err := compareBench(snapshot("same.json", 0.0209, 0.3359), base, 25); err != nil {
		t.Errorf("unchanged device counts failed the gate: %v", err)
	}
	if err := compareBench(snapshot("per-block.json", 2, 0.3359), base, 25); err == nil || !strings.Contains(err.Error(), "dev_calls_per_block") {
		t.Errorf("a request per block again: gate said %v", err)
	}
	if err := compareBench(snapshot("holes.json", 0.0209, 1), base, 25); err == nil || !strings.Contains(err.Error(), "read_share") {
		t.Errorf("holes read again: gate said %v", err)
	}
}

// TestCompareBenchResidentGate: resident_bytes is a count, held to 2 % on the
// BitmapMarshal rows: a bitmap that allocates its clean leaves again fails,
// and so does a row that stops reporting it.
func TestCompareBenchResidentGate(t *testing.T) {
	dir := t.TempDir()
	snapshot := func(file string, metrics map[string]float64) string {
		path := filepath.Join(dir, file)
		writeSnapshotV11(t, path, []benchResult{{Name: "BitmapMarshal/paper-empty", AllocsPerOp: 1, Metrics: metrics}})
		return path
	}
	base := snapshot("base.json", map[string]float64{"bytes": 8, "resident_bytes": 7344})
	if err := compareBench(snapshot("same.json", map[string]float64{"bytes": 8, "resident_bytes": 7400}), base, 25); err != nil {
		t.Errorf("resident_bytes within 2 %% failed the gate: %v", err)
	}
	if err := compareBench(snapshot("flat.json", map[string]float64{"bytes": 8, "resident_bytes": 1250240}), base, 25); err == nil || !strings.Contains(err.Error(), "resident_bytes") {
		t.Errorf("every leaf allocated again: gate said %v", err)
	}
	if err := compareBench(snapshot("missing.json", map[string]float64{"bytes": 8}), base, 25); err == nil || !strings.Contains(err.Error(), "resident_bytes missing") {
		t.Errorf("a row without resident_bytes: gate said %v", err)
	}
}

// TestCompareBenchBadFiles: unreadable or malformed snapshots error.
func TestCompareBenchBadFiles(t *testing.T) {
	dir := t.TempDir()
	good := dir + "/good.json"
	writeSnapshot(t, good, map[string]float64{"MigrateTCP/x": 1})
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
