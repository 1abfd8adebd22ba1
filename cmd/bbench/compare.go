package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// This file is the bench-regression gate: CI regenerates the BENCH_*.json
// snapshot on every run and compares it against the committed baseline,
// failing the build on a regression beyond the tolerance — so a perf
// regression is a red check, not an archaeology exercise three changes later.

// maxRegress is the growth, in percent of the baseline, a gated value may
// show before the gate fails.
const maxRegress = 25

// gates hold field of every row whose name starts with prefix to tolerance
// percent of the baseline (zero: maxRegress).
//
// Heap cost per op is set by the tree, not by the box, so allocs/op and
// bytes/op hold the rows; bytes/op rides with allocs/op so a few large
// allocations cannot hide in an unchanged count. No throughput is gated: a
// row's MB/s is the wall clock of the box that ran it, and the baseline
// comes from another box. What the engine counts — wire bytes, frames,
// device requests, hashes — is exact, and cmd/bbench/testdata/counts.golden
// holds it byte for byte; the modelled link's timing claims are exact in
// internal/core's virtual.golden.
var gates = []struct {
	prefix, field string
	tolerance     float64
}{
	// MigrateTCP/compressed's ~20 k allocs/op are the destination's stdlib
	// flate: compress/flate.(*huffmanDecoder).init allocates link tables for
	// every dynamic Huffman block (docs/ARCHITECTURE.md, "Memory discipline").
	{"MigrateTCP/", "allocs_per_op", 0},
	{"MigrateTCP/", "bytes_per_op", 0},
	{"MigrateWAN/", "allocs_per_op", 0},
	{"MigrateWAN/", "bytes_per_op", 0},
	{"MigrateDedup/", "allocs_per_op", 0},
	{"MigrateDedup/", "bytes_per_op", 0},
	{"SnapshotScan/", "allocs_per_op", 0},
	{"SnapshotScan/", "bytes_per_op", 0},
	// The one engine count that is not exact: the buffer pool's capacity
	// handed out per byte asked on the compressing TCP row. Its inflater
	// asks for the size of the frame before, a guess, and four workers
	// reorder the frames, so under -race a migration's asks moved by up to
	// 0.01 % and its capacity by 16 KiB (0.03 %) in 4 runs of 100. A pool
	// that hands out more per byte asked moves it further: a rise past 2 %
	// fails.
	{"MigrateTCP/compressed", "pool_slack", 2},
}

// value reads field off b and names its unit; ok is false where b does not
// carry it. The columns are omitted from the JSON when zero, so zero reads
// as absent.
func value(b benchResult, field string) (v float64, unit string, ok bool) {
	switch field {
	case "allocs_per_op":
		v, unit = b.AllocsPerOp, "allocs/op"
	case "bytes_per_op":
		v, unit = b.BytesPerOp, "B/op"
	default:
		v, unit = b.PoolSlack, "pool_slack"
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
// holds must be in the new snapshot and must not have grown by more than the
// gate's tolerance, in percent of the baseline. A baseline that carries
// nothing the gates hold fails; improvements and new rows pass freely.
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
			move := (got - was) / was * 100
			status := "ok"
			if move > tolerance {
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
