package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// This file is the bench-regression gate: CI regenerates the BENCH_*.json
// snapshot on every run and compares its headline throughput rows against
// the committed baseline, failing the build on a drop larger than the
// tolerance — so a perf regression is a red check, not an archaeology
// exercise three PRs later.

// headlinePrefix selects the benchmarks the gate enforces: the real-engine
// modeled-link migrations. The simulator rows are deterministic metrics, not
// throughput, and are reported but never gated.
//
// Caveat on cross-machine noise: the committed baseline was generated on a
// developer machine, CI compares on a runner. The default-per-block row is
// dominated by the modeled per-frame stall and is hardware-stable; the
// extent/adaptive rows are partly memcpy-bound and inherit some host speed.
// The 25% default tolerance absorbs typical ubuntu-latest variance — if the
// gate flakes on runner churn, regenerate the baseline on CI hardware
// rather than widening the tolerance.
const headlinePrefix = "MigrateModeledLink/"

// allocGatePrefixes selects the benchmarks whose per-op heap cost the gate
// enforces, as a count (allocs_per_op) and as bytes (bytes_per_op: 76 MB in
// 25 k allocations is invisible to a count, and a pooled buffer that stops
// being returned shows up here first). Unlike MB/s, an allocation count is
// hardware-independent — the
// same binary allocates the same on a laptop and a CI runner — so the
// loopback-TCP rows, too noisy for a cross-machine throughput gate, are
// gated on allocations: an accidental per-block allocation on the hot path
// multiplies the count by orders of magnitude and trips the same 25%
// tolerance long before it shows up in wall-clock. The SnapshotScan rows
// ride the same gate: the live-contended scan is allocation-free and the
// snapshot scan allocates only CoW copies, so a leak in the cache's
// Get/Release or snapshot overlay paths trips it immediately. The
// MigrateWAN rows pin the delta path's allocation budget — signatures,
// diffs, and patch application all run per-extent, so a per-chunk leak
// multiplies fast — and the MigrateDedup row does the same for the stage an
// advert is answered into.
var allocGatePrefixes = []string{"MigrateModeledLink/", "MigrateTCP/", "MigrateWAN/", "MigrateDedup/", "SnapshotScan/"}

// heapGates are the two per-op heap costs held on the alloc-gated rows.
var heapGates = []struct {
	field, unit string
	of          func(benchResult) float64
}{
	{"allocs_per_op", "allocs/op", func(b benchResult) float64 { return b.AllocsPerOp }},
	{"bytes_per_op", "B/op", func(b benchResult) float64 { return b.BytesPerOp }},
}

// metricGates lists deterministic simulator metrics the gate enforces,
// higher-is-better: a drop beyond the tolerance fails the build. The fleet
// rows pin what the cluster's trough rule buys over reactive scheduling —
// the diurnal speedup, and the bursty one that must not fall below doing
// nothing — so a forecaster or policy regression is a red check, not a
// quiet table change.
var metricGates = map[string]string{
	"SimFleetSweep/diurnal-predictive": "speedup",
	"SimFleetSweep/bursty-predictive":  "speedup",
}

// countGates lists the MemDelta rows' metrics: counts the engine makes on an
// in-order send path under a progress-paced guest, so they repeat exactly and
// are held to countTolerancePct whatever -max-regress says. All three are
// lower-is-better except delta_pages, which only has to stay put: pages that
// stop travelling as deltas show up as bytes in the other two.
var countGates = []string{"freeze_bytes", "mem_bytes", "delta_pages"}

const (
	countGatePrefix   = "MemDelta/"
	countTolerancePct = 2
)

// loadBenchFile reads a BENCH_*.json snapshot. Any schema in the
// "bbmig-bench/v1" family is accepted — v1 snapshots simply carry no
// allocs_per_op, and the alloc gate skips rows the baseline lacks.
func loadBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if !strings.HasPrefix(f.Schema, "bbmig-bench/v1") {
		return nil, fmt.Errorf("%s: unknown schema %q", path, f.Schema)
	}
	return &f, nil
}

// mbPerSec indexes a snapshot's throughput rows by name.
func mbPerSec(f *benchFile) map[string]float64 {
	out := make(map[string]float64)
	for _, b := range f.Benchmarks {
		if b.MBPerSec > 0 {
			out[b.Name] = b.MBPerSec
		}
	}
	return out
}

// heapPerOp indexes one of a snapshot's per-op heap costs by row name; rows
// that do not carry it (older schemas, unmeasured rows) are absent.
func heapPerOp(f *benchFile, of func(benchResult) float64) map[string]float64 {
	out := make(map[string]float64)
	for _, b := range f.Benchmarks {
		if v := of(b); v > 0 {
			out[b.Name] = v
		}
	}
	return out
}

// allocGated reports whether name's per-op heap cost is regression-gated.
func allocGated(name string) bool {
	for _, p := range allocGatePrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// compareBench gates newPath against basePath: every headline benchmark
// present in the baseline must be present in the new snapshot and within
// maxRegressPct of the baseline's MB/s, and every alloc-gated row must not
// have grown either heap cost the baseline carries for it — allocs/op,
// bytes/op — by more than maxRegressPct. Improvements and new benchmarks
// pass freely.
func compareBench(newPath, basePath string, maxRegressPct float64) error {
	newFile, err := loadBenchFile(newPath)
	if err != nil {
		return err
	}
	baseFile, err := loadBenchFile(basePath)
	if err != nil {
		return err
	}
	newRates, baseRates := mbPerSec(newFile), mbPerSec(baseFile)

	var failures []string
	checked := 0
	for name, base := range baseRates {
		if !strings.HasPrefix(name, headlinePrefix) {
			continue
		}
		checked++
		got, ok := newRates[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from %s", name, newPath))
			continue
		}
		drop := (base - got) / base * 100
		status := "ok"
		if drop > maxRegressPct {
			status = "REGRESSION"
			failures = append(failures,
				fmt.Sprintf("%s: %.1f MB/s vs baseline %.1f MB/s (-%.1f%%, tolerance %.0f%%)",
					name, got, base, drop, maxRegressPct))
		}
		fmt.Printf("gate %-44s base %9.1f MB/s  now %9.1f MB/s  (%+.1f%%) %s\n",
			name, base, got, -drop, status)
	}
	if checked == 0 {
		return fmt.Errorf("baseline %s has no %s* benchmarks to gate against", basePath, headlinePrefix)
	}

	allocChecked := 0
	for _, g := range heapGates {
		newCost, baseCost := heapPerOp(newFile, g.of), heapPerOp(baseFile, g.of)
		for name, base := range baseCost {
			if !allocGated(name) {
				continue
			}
			allocChecked++
			got, ok := newCost[name]
			if !ok {
				failures = append(failures, fmt.Sprintf("%s: %s missing from %s", name, g.field, newPath))
				continue
			}
			growth := (got - base) / base * 100
			status := "ok"
			if growth > maxRegressPct {
				status = "REGRESSION"
				failures = append(failures,
					fmt.Sprintf("%s: %.0f %s vs baseline %.0f (+%.1f%%, tolerance %.0f%%)",
						name, got, g.unit, base, growth, maxRegressPct))
			}
			fmt.Printf("gate %-44s base %11.0f %-9s  now %11.0f  (%+.1f%%) %s\n",
				name, base, g.unit, got, growth, status)
		}
	}

	// Deterministic metric floors: gated only when the baseline carries the
	// row, so a pre-fleet baseline still compares clean.
	metric := func(f *benchFile, name, key string) (float64, bool) {
		for _, b := range f.Benchmarks {
			if b.Name == name {
				v, ok := b.Metrics[key]
				return v, ok
			}
		}
		return 0, false
	}
	metricChecked := 0
	for name, key := range metricGates {
		base, ok := metric(baseFile, name, key)
		if !ok || base <= 0 {
			continue
		}
		metricChecked++
		got, ok := metric(newFile, name, key)
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: metric %q missing from %s", name, key, newPath))
			continue
		}
		drop := (base - got) / base * 100
		status := "ok"
		if drop > maxRegressPct {
			status = "REGRESSION"
			failures = append(failures,
				fmt.Sprintf("%s: %s %.2f vs baseline %.2f (-%.1f%%, tolerance %.0f%%)",
					name, key, got, base, drop, maxRegressPct))
		}
		fmt.Printf("gate %-44s base %9.2f %-9s  now %9.2f  (%+.1f%%) %s\n",
			name, base, key, got, -drop, status)
	}

	countChecked := 0
	for _, b := range baseFile.Benchmarks {
		if !strings.HasPrefix(b.Name, countGatePrefix) {
			continue
		}
		for _, key := range countGates {
			base, ok := b.Metrics[key]
			if !ok {
				continue
			}
			countChecked++
			got, ok := metric(newFile, b.Name, key)
			if !ok {
				failures = append(failures, fmt.Sprintf("%s: metric %q missing from %s", b.Name, key, newPath))
				continue
			}
			// Against max(base, 1) so a zero count (no delta ever pays for the
			// page-rewriting guest) is gated too.
			move := (got - base) / max(base, 1) * 100
			bad := move > countTolerancePct || (key == "delta_pages" && move < -countTolerancePct)
			status := "ok"
			if bad {
				status = "REGRESSION"
				failures = append(failures,
					fmt.Sprintf("%s: %s %.0f vs baseline %.0f (%+.1f%%, tolerance %d%%)", b.Name, key, got, base, move, countTolerancePct))
			}
			fmt.Printf("gate %-44s base %9.0f %-12s  now %9.0f  (%+.1f%%) %s\n", b.Name, base, key, got, move, status)
		}
	}

	if len(failures) > 0 {
		return fmt.Errorf("bench regression gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Printf("bench gate passed: %d throughput + %d allocation + %d metric benchmarks within %.0f%%, %d counts within %d%% of %s\n",
		checked, allocChecked, metricChecked, maxRegressPct, countChecked, countTolerancePct, basePath)
	return nil
}
