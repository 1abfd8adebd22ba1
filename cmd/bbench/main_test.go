package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bbmig/internal/blockdev"
	"bbmig/internal/sim"
	"bbmig/internal/vm"
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

// goldenCount reads key's count off row's line in testdata/counts.golden: n
// and d of an n/d pair, n and 0 of a lone integer. TestExperimentPrintersRun
// holds the engine to that file byte for byte. The TestCompareBench*Gate
// tests below once held these counts in the bench comparator, to 2 % of a
// committed snapshot; they now hold the golden to the claim each gate stood
// for, so a regression cannot come in through -update-golden unseen either.
func goldenCount(t *testing.T, row, key string) (n, d int64) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "counts.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != row {
			continue
		}
		for _, f := range fields[1:] {
			k, v, _ := strings.Cut(f, "=")
			if k != key {
				continue
			}
			num, den, pair := strings.Cut(v, "/")
			n, err := strconv.ParseInt(num, 10, 64)
			if err == nil && pair {
				d, err = strconv.ParseInt(den, 10, 64)
			}
			if err != nil {
				t.Fatalf("counts.golden %s: %s=%s is not a count: %v", row, key, v, err)
			}
			return n, d
		}
		t.Fatalf("counts.golden %s carries no %s", row, key)
	}
	t.Fatalf("counts.golden has no %s row", row)
	return 0, 0
}

// TestCompareBenchCountGate: the MemDelta rows' guest rewrites 512 hot pages
// of 2 048 (memDeltaRow). A word touched sends every hot page as a delta,
// each page's memory once plus those deltas within 1 %, and a freeze window
// under 1 % of a scrambled page's; a frozen page per frame is a frame per
// delta. A page one byte in twelve rewritten pays as a delta, under half the
// scrambled window, and a scrambled page is never a delta.
func TestCompareBenchCountGate(t *testing.T) {
	const hotPages, memory = 512, 2048 * vm.PageSize
	scrambled, _ := goldenCount(t, "MemDelta/page-scramble", "freeze")
	for _, row := range []string{"MemDelta/word-touch", "MemDelta/word-touch-per-page"} {
		freeze, frames := goldenCount(t, row, "freeze")
		mem, _ := goldenCount(t, row, "mem")
		deltas, _ := goldenCount(t, row, "deltas")
		if deltas != hotPages || mem < memory || mem*100 > memory*101 || freeze*100 > scrambled {
			t.Errorf("%s: %d deltas, %d memory bytes, freeze window %d B: want %d deltas, %d B within 1 %%, under 1 %% of page-scramble's %d B",
				row, deltas, mem, freeze, hotPages, memory, scrambled)
		}
		if row == "MemDelta/word-touch-per-page" && frames < deltas {
			t.Errorf("%s: %d freeze frames for %d delta pages", row, frames, deltas)
		}
	}
	rewrite, _ := goldenCount(t, "MemDelta/page-rewrite", "freeze")
	rewriteDeltas, _ := goldenCount(t, "MemDelta/page-rewrite", "deltas")
	if rewriteDeltas < hotPages || rewrite*2 > scrambled {
		t.Errorf("MemDelta/page-rewrite: %d deltas, freeze window %d B: want ≥ %d, under half of page-scramble's %d B", rewriteDeltas, rewrite, hotPages, scrambled)
	}
	if deltas, _ := goldenCount(t, "MemDelta/page-scramble", "deltas"); deltas != 0 {
		t.Errorf("MemDelta/page-scramble: %d scrambled pages sent as deltas", deltas)
	}
}

// TestCompareBenchWireShareGate: every TCP row's wire carries the blocks its
// source read and the guest's memory, framing within 1 %, so a zero extent
// travels as a header; the kernel image's wire is under half its logical
// bytes.
func TestCompareBenchWireShareGate(t *testing.T) {
	for _, row := range []string{"MigrateTCP/cold", "MigrateTCP/dense", "MigrateTCP/striped4", "MigrateTCP/compressed", "MigrateTCP/per-block"} {
		wire, logical := goldenCount(t, row, "wire")
		read, owed := goldenCount(t, row, "read")
		payload := read*blockdev.BlockSize + logical - owed*blockdev.BlockSize
		if wire*100 > payload*101 {
			t.Errorf("%s: %d wire bytes for %d blocks read and %d memory bytes", row, wire, read, logical-owed*blockdev.BlockSize)
		}
	}
	if wire, logical := goldenCount(t, "MigrateTCP/cold", "wire"); wire*2 > logical {
		t.Errorf("MigrateTCP/cold: %d wire bytes of %d logical: zero extents sent literally", wire, logical)
	}
}

// TestCompareBenchSigGate: a literal WAN return exchanges no signature, and
// the hinted delta return's exchange is under half the cold signature's,
// which records every chunk of the rewritten blocks; no patch is refused.
func TestCompareBenchSigGate(t *testing.T) {
	literal, _ := goldenCount(t, "MigrateWAN/literal-back", "sig")
	hinted, rewritten := goldenCount(t, "MigrateWAN/delta-back", "sig")
	cold, _ := goldenCount(t, "MigrateWAN/coldsig-back", "sig")
	if literal != 0 || hinted*2 > cold {
		t.Errorf("signature bytes over %d rewritten blocks: literal %d, hinted %d, cold %d: want 0 and hinted under half of cold", rewritten, literal, hinted, cold)
	}
	for _, row := range []string{"MigrateWAN/literal-back", "MigrateWAN/delta-back", "MigrateWAN/coldsig-back"} {
		if refused, _ := goldenCount(t, row, "refused"); refused != 0 {
			t.Errorf("%s: %d patches refused", row, refused)
		}
	}
}

// TestCompareBenchPoolSlackGate: pool_slack, the one engine count that is
// not exact, is held to 2 % of its baseline on the compressing TCP row,
// whatever the heap columns are allowed: a pool that hands out more capacity
// per byte asked fails, one that hands out less passes, and the row must
// keep reporting it.
func TestCompareBenchPoolSlackGate(t *testing.T) {
	dir := t.TempDir()
	snapshot := func(file string, slack float64) string {
		path := filepath.Join(dir, file)
		writeSnapshotV11(t, path, []benchResult{{Name: "MigrateTCP/compressed", AllocsPerOp: 20104, PoolSlack: slack}})
		return path
	}
	base := snapshot("base.json", 1.047)
	for _, tc := range []struct {
		slack float64
		fails string
	}{{1.047, ""}, {1.06, ""}, {1.0, ""}, {1.075, "pool_slack"}, {0, "pool_slack missing"}} {
		err := compareBench(snapshot("new.json", tc.slack), base, 25)
		if tc.fails == "" && err != nil || tc.fails != "" && (err == nil || !strings.Contains(err.Error(), tc.fails)) {
			t.Errorf("pool_slack %v against 1.047: gate said %v, want a failure naming %q", tc.slack, err, tc.fails)
		}
	}
}

// TestCompareBenchRoundTripGate: a source that waits on every probe's reply
// flushes once a probe or more; the WAN and dedup sources batch eight probes
// or more to a flush, and the rows without probes flush for none.
func TestCompareBenchRoundTripGate(t *testing.T) {
	for _, row := range []string{"MigrateWAN/delta-back", "MigrateWAN/coldsig-back", "MigrateDedup/warm", "MigrateDedup/cold", "MigrateDedup/third", "MigrateDedup/distinct"} {
		if flushes, probes := goldenCount(t, row, "probes"); probes == 0 || flushes*8 > probes {
			t.Errorf("%s: %d flushes for %d probes", row, flushes, probes)
		}
	}
	for _, row := range []string{"MigrateWAN/literal-back", "MigrateDedup/literal"} {
		if flushes, probes := goldenCount(t, row, "probes"); flushes != 0 || probes != 0 {
			t.Errorf("%s: %d flushes for %d probes, want none", row, flushes, probes)
		}
	}
}

// TestCompareBenchHashGate: the source fingerprints each distinct payload of
// a clone once for its adverts, and a warm index hashes each distinct payload
// of its sibling once; with dedup off nothing is hashed.
func TestCompareBenchHashGate(t *testing.T) {
	for _, tc := range []struct {
		row      string
		distinct int64
	}{{"MigrateDedup/warm", templates}, {"MigrateDedup/third", templates}, {"MigrateDedup/distinct", blocks * 3 / 4}} {
		hashes, _ := goldenCount(t, tc.row, "hashes")
		src, _ := goldenCount(t, tc.row, "src-hashes")
		if hashes != tc.distinct || src != tc.distinct {
			t.Errorf("%s: the index hashed %d, the source %d: want %d distinct payloads each", tc.row, hashes, src, tc.distinct)
		}
	}
	if hashes, owed := goldenCount(t, "MigrateDedup/cold", "hashes"); hashes > owed {
		t.Errorf("MigrateDedup/cold: the index hashed %d for %d blocks", hashes, owed)
	}
	if src, _ := goldenCount(t, "MigrateDedup/cold", "src-hashes"); src != templates {
		t.Errorf("MigrateDedup/cold: the source hashed %d, want %d", src, templates)
	}
	hashes, _ := goldenCount(t, "MigrateDedup/literal", "hashes")
	src, _ := goldenCount(t, "MigrateDedup/literal", "src-hashes")
	if hashes != 0 || src != 0 {
		t.Errorf("MigrateDedup/literal: %d index and %d source hashes with dedup off", hashes, src)
	}
}

// TestCompareBenchRefShareGate: a destination whose index knows the clone's
// content answers every block by reference, by the third migration too; a
// cold one takes each template literally once and the rest by reference.
func TestCompareBenchRefShareGate(t *testing.T) {
	for _, row := range []string{"MigrateDedup/warm", "MigrateDedup/third", "MigrateDedup/distinct"} {
		if refs, owed := goldenCount(t, row, "refs"); refs != owed {
			t.Errorf("%s: %d of %d blocks by reference", row, refs, owed)
		}
	}
	if refs, owed := goldenCount(t, "MigrateDedup/cold", "refs"); refs != owed-templates {
		t.Errorf("MigrateDedup/cold: %d of %d blocks by reference, want all but the %d templates", refs, owed, templates)
	}
}

// TestCompareBenchSwarmSweepGate: the swarm arm moves the template share off
// the source's wire onto its peers, it does not shrink it: its wire plus the
// blocks the peers serve is the single-source arm's wire within 1 %, and the
// evacuation is at least twice as fast.
func TestCompareBenchSwarmSweepGate(t *testing.T) {
	rows, _ := sim.SwarmSweep(1)
	if len(rows) != 3 {
		t.Fatalf("%d swarm sweep arms, want literal, single-source and swarm", len(rows))
	}
	literal, single, swarm := rows[0], rows[1], rows[2]
	moved := swarm.PerDomainWireMB + float64(swarm.SwarmBlocks)*blockdev.BlockSize/1e6
	if math.Abs(moved-single.PerDomainWireMB) > single.PerDomainWireMB/100 {
		t.Errorf("swarm arm: %.0f MB on the wire and %d peer blocks, single-source %.0f MB", swarm.PerDomainWireMB, swarm.SwarmBlocks, single.PerDomainWireMB)
	}
	if swarm.FleetWireGB >= single.FleetWireGB || single.FleetWireGB >= literal.FleetWireGB {
		t.Errorf("fleet wire: literal %.1f, single-source %.1f, swarm %.1f GB: want each arm under the one before", literal.FleetWireGB, single.FleetWireGB, swarm.FleetWireGB)
	}
	if single.Speedup != 1 || swarm.Speedup < 2 {
		t.Errorf("speedups: single-source %.2fx, swarm %.2fx: want 1x and at least 2x", single.Speedup, swarm.Speedup)
	}
}

// TestCompareBenchDeviceGate: at 64-block extents a migration asks each
// device once an extent, at most two requests per 64 blocks owed, and a
// source that can name its never-written extents reads none of them; served
// a block a request, it asks twice per block.
func TestCompareBenchDeviceGate(t *testing.T) {
	extents := []string{"MigrateTCP/cold", "MigrateTCP/dense", "MigrateTCP/striped4", "MigrateTCP/compressed"}
	perBlock := []string{"MigrateTCP/per-block"}
	for _, kind := range []string{"file", "slow"} {
		for _, workers := range []string{"1", "4"} {
			extents = append(extents, "MigrateDev/"+kind+"-extent/workers-"+workers)
			perBlock = append(perBlock, "MigrateDev/"+kind+"-per-block/workers-"+workers)
		}
	}
	for _, row := range extents {
		if calls, owed := goldenCount(t, row, "calls"); calls*64 > 2*owed {
			t.Errorf("%s: %d device requests for %d blocks owed", row, calls, owed)
		}
	}
	for _, row := range perBlock {
		if calls, owed := goldenCount(t, row, "calls"); calls != 2*owed {
			t.Errorf("%s: %d device requests for %d blocks owed, want two a block", row, calls, owed)
		}
	}
	for _, row := range []string{"MigrateTCP/cold", "MigrateTCP/striped4", "MigrateTCP/compressed"} {
		if read, owed := goldenCount(t, row, "read"); read*2 > owed {
			t.Errorf("%s: the source read %d of %d blocks: holes read", row, read, owed)
		}
	}
}

// TestCompareBenchResidentGate: a sparse bitmap of the paper's disk holds
// under 2 % of a flat bitmap's bytes, so its clean leaves are not allocated;
// a half-set one holds every leaf and encodes as the flat bitmap and its
// header.
func TestCompareBenchResidentGate(t *testing.T) {
	const flat = paperBlocks / 8
	for _, row := range []string{"BitmapMarshal/paper-empty", "BitmapMarshal/paper-web"} {
		if resident, _ := goldenCount(t, row, "resident"); resident*50 > flat {
			t.Errorf("%s: %d bytes resident, a flat bitmap is %d", row, resident, flat)
		}
	}
	resident, _ := goldenCount(t, "BitmapMarshal/paper-half", "resident")
	encoded, _ := goldenCount(t, "BitmapMarshal/paper-half", "encoded")
	if resident < flat || encoded > flat+8 {
		t.Errorf("BitmapMarshal/paper-half: %d bytes resident, %d encoded, a flat bitmap is %d", resident, encoded, flat)
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
