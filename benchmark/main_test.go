package main

import (
	"regexp"
	"testing"
	"time"

	"bbmig/internal/blockdev"
	"bbmig/internal/blockdev/bcache"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesCode holds BENCHMARK.json and the tables the binary
// prints from to each other, name for name and in order.
func TestManifestMatchesCode(t *testing.T) {
	m, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: manifest %q / binary %q (or their reasons differ)", i, w.Name, specs[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: name or why outside the contract's limits", w.Name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the binary %d", len(m.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, e := range m.EndToEnd {
		d := endToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("end-to-end %d: manifest %v, binary %v", i, e, d)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound missing or outside (0, 0.25]", e.Name)
		}
		if !nameRE.MatchString(e.Name) || !unitRE.MatchString(e.Unit) {
			t.Errorf("%s (%s): name or unit outside the contract's alphabet", e.Name, e.Unit)
		}
		sawSetup = sawSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the binary %d", len(m.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, p := range m.PerLayer {
		d := perLayer[i]
		if p.Name != d.name || p.Unit != d.unit || p.Better != d.better {
			t.Errorf("per-layer %d: manifest %v, binary %v", i, p, d)
		}
		if !nameRE.MatchString(p.Name) || !unitRE.MatchString(p.Unit) {
			t.Errorf("%s (%s): name or unit outside the contract's alphabet", p.Name, p.Unit)
		}
		if seen[p.Name] {
			t.Errorf("%s listed twice", p.Name)
		}
		seen[p.Name] = true
	}
}

// TestSmokeEveryWorkload runs each workload for one verified migration
// (paper-scale im-back included) and checks that every end-to-end metric
// comes out, and comes out non-zero.
func TestSmokeEveryWorkload(t *testing.T) {
	start := time.Now()
	for _, sp := range specs {
		res, err := runWorkload(sp, options{seed: 1, count: 1})
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if res.failed != 0 || res.attempted < 2 {
			t.Errorf("%s: %d of %d operations failed: %v", sp.name, res.failed, res.attempted, res.errs)
		}
		for _, d := range endToEnd {
			if v, ok := res.values[d.name]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", sp.name, d.name, v)
			}
		}
	}
	if d := time.Since(start); d > 30*time.Second { // 15 s is the target; the slack is for a busy host
		t.Errorf("smoke pass took %v, want under 15 s (30 s on a busy host)", d)
	}
}

// TestTracedPassPredictions runs the traced pass where the layer → workload
// predictions are sharpest and checks the "only on" ones: a layer a workload
// does not exercise reports zero, the layers it does exercise do not.
func TestTracedPassPredictions(t *testing.T) {
	run := func(name string, count int) map[string]float64 {
		res, err := runWorkload(findSpec(name), options{seed: 1, count: count, trace: 1, outDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.failed != 0 {
			t.Fatalf("%s: failures: %v", name, res.errs)
		}
		for _, d := range perLayer {
			if _, ok := res.values[d.name]; !ok {
				t.Errorf("%s: %s missing", name, d.name)
			}
		}
		return res.values
	}
	cold := run("cold-full", 3) // medians of three: one stalled migration must not fail the timing check
	for _, name := range []string{
		"dedup.ref_share", "dedup.fingerprint_ns_per_block", "delta.patch_share", "delta.sig_ns_per_block",
		"transport.compress_ns_per_block", "transport.stripe_fences", "bcache.cow_copies", "core.retransferred_blocks",
	} {
		if cold[name] != 0 {
			t.Errorf("cold-full: %s = %v, want 0", name, cold[name])
		}
	}
	if cold["core.disk_iterations"] != 1 || cold["blockdev.read_blocks"] != smallBlocks || cold["blockdev.write_blocks"] != smallBlocks {
		t.Errorf("cold-full: iterations %v, reads %v, writes %v", cold["core.disk_iterations"], cold["blockdev.read_blocks"], cold["blockdev.write_blocks"])
	}
	if cold["bench.floor_ratio"] <= 0 || cold["bench.cpu_s_per_gib"] <= 0 || cold["bench.migration_s"] <= 0 {
		t.Errorf("cold-full: floor ratio %v, CPU %v s/GiB, migration %v s, want all positive",
			cold["bench.floor_ratio"], cold["bench.cpu_s_per_gib"], cold["bench.migration_s"])
	}
	if share := cold["bench.phase_sum_share"]; share < 0.95 || share > 1.0001 {
		t.Errorf("cold-full: source phases cover %.3f of the migration, want within 5%%", share)
	}
	live := run("live-rewrite", 1)
	if live["core.disk_iterations"] <= 1 || live["bcache.cow_copies"] <= 0 || live["core.frozen_blocks"] <= 0 || live["vm.final_dirty_pages"] <= 0 {
		t.Errorf("live-rewrite: iterations %v, cow copies %v, frozen blocks %v, final dirty pages %v",
			live["core.disk_iterations"], live["bcache.cow_copies"], live["core.frozen_blocks"], live["vm.final_dirty_pages"])
	}
	dedup := run("clone-dedup", 1)
	if dedup["dedup.ref_share"] < 0.9 || dedup["dedup.advert_round_trips"] <= 0 || dedup["delta.patch_share"] != 0 {
		t.Errorf("clone-dedup: ref share %v, adverts %v, patch share %v", dedup["dedup.ref_share"], dedup["dedup.advert_round_trips"], dedup["delta.patch_share"])
	}
}

// TestDecoratorsChangeNothing migrates the deterministic workloads with the
// decorators off and on: wire bytes and frame counts must be identical.
func TestDecoratorsChangeNothing(t *testing.T) {
	for _, name := range []string{"cold-full", "im-back", "clone-dedup", "wan-delta-back"} {
		sp := findSpec(name)
		fx, err := sp.build(1)
		if err != nil {
			t.Fatal(err)
		}
		plain := runMigration(sp, fx, 1, nil, false)
		traced := runMigration(sp, fx, 1, newTracer().begin(0), false)
		if plain.failed+traced.failed > 0 {
			t.Fatalf("%s: %v %v", name, plain.errs, traced.errs)
		}
		if plain.src.MigratedBytes != traced.src.MigratedBytes || plain.srcFrames != traced.srcFrames || plain.frozenKiB != traced.frozenKiB {
			t.Errorf("%s: untraced %d B / %d frames / %v KiB frozen, traced %d B / %d frames / %v KiB frozen", name,
				plain.src.MigratedBytes, plain.srcFrames, plain.frozenKiB,
				traced.src.MigratedBytes, traced.srcFrames, traced.frozenKiB)
		}
		sent, _, _ := traced.mt.send[sideSource].totals()
		if sent != traced.srcFrames {
			t.Errorf("%s: decorator saw %d frames, the meter above it %d", name, sent, traced.srcFrames)
		}
	}
}

// TestDeviceDecoratorKeepsCapabilities: the engine asks a device whether it
// is a Volume (snapshot reads) and an Allocator; the wrapper must answer as
// the bare device does.
func TestDeviceDecoratorKeepsCapabilities(t *testing.T) {
	mt := newTracer().begin(0)
	disk := blockdev.NewMemDisk(64, blockdev.BlockSize)
	if _, ok := wrapDevice(disk, mt, sideSource).(blockdev.Volume); ok {
		t.Error("a wrapped MemDisk claims to be a Volume")
	}
	wrapped := wrapDevice(bcache.New(disk, 16), mt, sideSource)
	vol, ok := wrapped.(blockdev.Volume)
	if !ok {
		t.Fatal("a wrapped bcache volume is no longer a Volume")
	}
	if _, ok := wrapped.(blockdev.Allocator); !ok {
		t.Error("a wrapped bcache volume is no longer an Allocator")
	}
	buf := make([]byte, blockdev.BlockSize)
	buf[0] = 1
	if err := vol.WriteBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	snap := vol.Snapshot()
	buf[0] = 2
	if err := vol.WriteBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	if err := snap.ReadBlock(3, buf); err != nil || buf[0] != 1 {
		t.Errorf("snapshot through the wrapper read %d (err %v), want the pre-write 1", buf[0], err)
	}
	snap.Release()
	if err := vol.Release(); err != nil {
		t.Errorf("release through the wrapper: %v", err)
	}
	if got := mt.read[sideSource].blocks.Load(); got != 1 {
		t.Errorf("snapshot read not counted: %d reads", got)
	}
}
