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
// No throughput is gated: a row's MB/s is the wall clock of the box that ran
// it, and the baseline comes from another box. What the modelled link
// claims — extents beat per-block frames, four streams hide the per-frame
// stall — core's virtual.golden states exactly, in virtual time. Heap cost
// per op is hardware-independent, so allocs/op and B/op (a few large
// allocations hide in a count) hold the rows. The fleet rows pin what the
// cluster's trough rule buys; bursty must not fall below doing nothing. The
// swarm sweep's pin its wire bytes and speedups. Counts that repeat exactly
// are held to 2 % whatever -max-regress says: the MemDelta counts, the
// frames a live migration's freeze window carries and the bytes a TCP row's
// idle one does (in-order send path; delta_pages may move neither
// way); wire_share, the idle migrations' wire bytes per logical byte (a change
// that stops eliding zero extents fails it); hashes_per_block and
// src_hashes_per_block, the SHA-256 calls a dedup destination's index and its
// source's adverts make per block, and ref_share, the blocks it answered by
// reference (an index gone cold fails it); writes_per_frame, the
// socket writes per data frame of a TCP row (a change that stops staging fails
// it); pool_slack, the buffer pool's capacity handed out per byte asked on a
// TCP row (a change that widens the classes, or grows a buffer past what it
// fills, fails it); dev_calls_per_block and read_share, the device requests per block of a
// TCP or device row and the source blocks it read (a change that goes back to
// a request per block, or reads the holes it can name, fails them); and the
// blocks of a WAN row whose patch was refused and its signature bytes per
// rewritten block (a change that describes unchanged content again fails it);
// and round_trips_per_extent, a WAN or dedup row's source flushes per content
// probe (a change that waits on each probe's reply again fails it); and
// resident_bytes, the memory a BitmapMarshal fixture holds (a change that
// allocates a bitmap's clean leaves again fails it). (A move is measured against
// max(base, 1), so on a ratio 2 % is two hundredths.)
var gates = []struct {
	prefix, field string
	better        better
	tolerance     float64
}{
	// MigrateTCP/compressed's ~20 k allocs/op are the destination's stdlib
	// flate: compress/flate.(*huffmanDecoder).init allocates link tables for
	// every dynamic Huffman block (docs/ARCHITECTURE.md, "Memory discipline").
	{"MigrateTCP/", "allocs_per_op", lower, 0},
	{"MigrateTCP/", "bytes_per_op", lower, 0},
	{"MigrateTCP/", "wire_share", lower, 2},
	{"MigrateTCP/", "writes_per_frame", lower, 2},
	{"MigrateTCP/", "pool_slack", lower, 2},
	{"MigrateTCP/", "dev_calls_per_block", lower, 2},
	{"MigrateTCP/", "read_share", lower, 2},
	{"MigrateTCP/", "freeze_bytes", lower, 2},
	{"MigrateDev/", "dev_calls_per_block", lower, 2},
	{"MigrateWAN/", "allocs_per_op", lower, 0},
	{"MigrateWAN/", "bytes_per_op", lower, 0},
	{"MigrateWAN/", "refused_blocks", lower, 2},
	{"MigrateWAN/", "sig_bytes_per_block", lower, 2},
	{"MigrateWAN/", "round_trips_per_extent", lower, 2},
	{"MigrateDedup/", "allocs_per_op", lower, 0},
	{"MigrateDedup/", "bytes_per_op", lower, 0},
	{"MigrateDedup/", "hashes_per_block", lower, 2},
	{"MigrateDedup/", "src_hashes_per_block", lower, 2},
	{"MigrateDedup/", "ref_share", higher, 2},
	{"MigrateDedup/", "round_trips_per_extent", lower, 2},
	{"BitmapMarshal/", "resident_bytes", lower, 2},
	{"SnapshotScan/", "allocs_per_op", lower, 0},
	{"SnapshotScan/", "bytes_per_op", lower, 0},
	{"SimFleetSweep/diurnal-predictive", "speedup", higher, 0},
	{"SimFleetSweep/bursty-predictive", "speedup", higher, 0},
	{"SimSwarmSweep/", "fleet_wire_gb", lower, 2},
	{"SimSwarmSweep/", "speedup", higher, 0},
	{"MemDelta/", "freeze_bytes", lower, 2},
	{"MemDelta/", "freeze_frames", lower, 2},
	{"MigrateLive/rewrite", "freeze_frames", lower, 2},
	{"MemDelta/", "mem_bytes", lower, 2},
	{"MemDelta/", "delta_pages", both, 2},
}

// value reads field off b and names its unit; ok is false where b does not
// carry it. The timing and heap columns are omitted from the JSON when zero,
// so zero reads as absent; any other field names a metric.
func value(b benchResult, field string) (v float64, unit string, ok bool) {
	switch field {
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
