package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// This file is the bench-regression gate: CI regenerates the BENCH_*.json
// snapshot on every run and compares it against the committed baseline,
// failing the build on a regression beyond the tolerance — so a perf
// regression is a red check, not an archaeology exercise three changes later.

// better is the direction a gated value may move freely.
type better int

const (
	higher better = iota // a drop beyond the tolerance fails
	lower                // a rise beyond the tolerance fails
	both                 // any move beyond the tolerance fails
)

// gates hold field of every row whose name starts with prefix, to tolerance
// percent (zero: -max-regress).
//
// Throughput is held on the modelled-link rows only: the baseline comes from
// a developer machine, CI runs on a runner, and those rows are dominated by
// the modelled per-frame stall or by memcpy. If the gate flakes on runner
// churn, regenerate the baseline on CI hardware rather than widen the 25 %.
// Heap cost per op is hardware-independent, so allocs/op and B/op (a few
// large allocations hide in a count) also hold the rows too noisy for a
// cross-machine throughput gate. The fleet rows pin what the cluster's
// trough rule buys; bursty must not fall below doing nothing. The MemDelta
// counts repeat exactly on an in-order send path, so they are held to 2 %
// whatever -max-regress says, and delta_pages may move neither way.
var gates = []struct {
	prefix, field string
	better        better
	tolerance     float64
}{
	{"MigrateModeledLink/", "mb_per_s", higher, 0},
	{"MigrateModeledLink/", "allocs_per_op", lower, 0},
	{"MigrateModeledLink/", "bytes_per_op", lower, 0},
	{"MigrateTCP/", "allocs_per_op", lower, 0},
	{"MigrateTCP/", "bytes_per_op", lower, 0},
	{"MigrateWAN/", "allocs_per_op", lower, 0},
	{"MigrateWAN/", "bytes_per_op", lower, 0},
	{"MigrateDedup/", "allocs_per_op", lower, 0},
	{"MigrateDedup/", "bytes_per_op", lower, 0},
	{"SnapshotScan/", "allocs_per_op", lower, 0},
	{"SnapshotScan/", "bytes_per_op", lower, 0},
	{"SimFleetSweep/diurnal-predictive", "speedup", higher, 0},
	{"SimFleetSweep/bursty-predictive", "speedup", higher, 0},
	{"MemDelta/", "freeze_bytes", lower, 2},
	{"MemDelta/", "mem_bytes", lower, 2},
	{"MemDelta/", "delta_pages", both, 2},
}

// value reads field off b and names its unit; ok is false where b does not
// carry it. The timing and heap columns are omitted from the JSON when zero,
// so zero reads as absent; any other field names a metric.
func value(b benchResult, field string) (v float64, unit string, ok bool) {
	switch field {
	case "mb_per_s":
		v, unit = b.MBPerSec, "MB/s"
	case "allocs_per_op":
		v, unit = b.AllocsPerOp, "allocs/op"
	case "bytes_per_op":
		v, unit = b.BytesPerOp, "B/op"
	default:
		v, ok = b.Metrics[field]
		return v, field, ok
	}
	return v, unit, v > 0
}

// loadBenchFile reads a BENCH_*.json snapshot. Any schema in the
// "bbmig-bench/v1" family is accepted — v1 snapshots simply carry no
// allocs_per_op, and a gate skips values the baseline lacks.
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

// compareBench gates newPath against basePath. Every baseline value a gate
// holds must be in the new snapshot and must not have moved the wrong way by
// more than the gate's tolerance, measured against max(base, 1) so a zero
// count is held too. A baseline that carries nothing the gates hold fails;
// improvements and new rows pass freely.
func compareBench(newPath, basePath string, maxRegressPct float64) error {
	newFile, err := loadBenchFile(newPath)
	if err != nil {
		return err
	}
	baseFile, err := loadBenchFile(basePath)
	if err != nil {
		return err
	}
	now := make(map[string]benchResult, len(newFile.Benchmarks))
	for _, b := range newFile.Benchmarks {
		now[b.Name] = b
	}
	var failures []string
	checked := 0
	for _, base := range baseFile.Benchmarks {
		for _, g := range gates {
			was, unit, ok := value(base, g.field)
			if !ok || !strings.HasPrefix(base.Name, g.prefix) {
				continue
			}
			checked++
			got, _, ok := value(now[base.Name], g.field)
			if !ok {
				failures = append(failures, fmt.Sprintf("%s: %s missing from %s", base.Name, g.field, newPath))
				continue
			}
			tolerance := g.tolerance
			if tolerance == 0 {
				tolerance = maxRegressPct
			}
			move := (got - was) / max(was, 1) * 100
			bad := map[better]bool{higher: -move > tolerance, lower: move > tolerance, both: math.Abs(move) > tolerance}[g.better]
			status := "ok"
			if bad {
				status = "REGRESSION"
				failures = append(failures, fmt.Sprintf("%s: %s %.2f vs baseline %.2f (%+.1f%%, tolerance %.0f%%)",
					base.Name, unit, got, was, move, tolerance))
			}
			fmt.Printf("gate %-44s %-12s base %14.2f  now %14.2f  (%+.1f%%) %s\n", base.Name, unit, was, got, move, status)
		}
	}
	if checked == 0 {
		return fmt.Errorf("baseline %s carries nothing the gate holds", basePath)
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench regression gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Printf("bench gate passed: %d values within tolerance of %s\n", checked, basePath)
	return nil
}
