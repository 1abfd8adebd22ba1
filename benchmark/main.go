// Command benchmark is the repository's performance benchmark: seven
// migration workloads run end to end through the real engine over loopback
// TCP, every migration verified, plus a traced pass that attributes time
// and bytes to each layer from outside (see README.md).
//
//	benchmark -workload cold-full -seed 1 -seconds 8 -trace 0
//
// prints every metric by name with its unit and, as the last line of
// standard output, one JSON object. BENCHMARK.json at the repository root
// names the workloads and metrics and fixes the regression bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"bbmig/internal/blockdev"
	"bbmig/internal/core"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
)

// setupRepeats is how many times an untraced run sets up. setup_s is the
// lowest user CPU time of them, not a wall-clock median: the sandbox's host
// takes the vCPUs away for a third of the time in regimes that last minutes.
// Between one ten of consecutive runs and another, the wall-clock median
// moved by 43 to 90 %, and system time (page faults, the loopback stack) is
// the part of CPU time that follows the host: a factor of four between runs,
// where user time stays within 13 % (README.md). Interference only adds time.
const setupRepeats = 5

// traceDir is where the traced pass writes trace-<workload>.jsonl, relative
// to the root of the checkout the benchmark is run from.
const traceDir = "benchmark/out"

// traceShare is the part of a traced run's seconds spent on migrations; the
// rest is left for the ex-situ ladder.
const traceShare = 0.6

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	timeout  time.Duration
	aa       bool

	// Set by the tests only: measure exactly count migrations instead of for
	// seconds, and write the trace file to outDir instead of traceDir.
	count  int
	outDir string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generator")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds to measure for")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced pass")
	flag.DurationVar(&o.timeout, "timeout", 170*time.Second, "watchdog: give up and exit non-zero after this long (per run)")
	flag.BoolVar(&o.aa, "aa", false, "A/A mode: run two sets of runs per workload and judge them against BENCHMARK.json")
	flag.Parse()
	o.outDir = traceDir
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if o.aa {
		if err := runAA(o); err != nil {
			fatal(err)
		}
		return
	}

	// The watchdog is the last line of defence against a hung migration (a
	// protocol bug presents as two engines blocked on each other's Recv):
	// the process exits, which closes every listener and connection it
	// holds, and the exit code tells the caller no result was produced.
	watchdog := time.AfterFunc(o.timeout, func() {
		fmt.Fprintf(os.Stderr, "benchmark: no result after %v, giving up\n", o.timeout)
		os.Exit(3)
	})
	defer watchdog.Stop()

	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, sp := range specs {
			names = append(names, sp.name)
		}
	}
	for _, name := range names {
		sp := findSpec(name)
		if sp == nil {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		watchdog.Reset(o.timeout)
		res, err := runWorkload(sp, o)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		res.print(os.Stdout)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runResult is one run of one workload, ready to print.
type runResult struct {
	workload  string
	defs      []metricDef
	values    map[string]float64
	note      string // one diagnostic line, never gated
	attempted int
	failed    int
	errs      []error
}

// settle waits for the goroutines a migration started (stream readers, the
// engine's read loop) to exit, and reports how many are left over.
func settle(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return max(0, runtime.NumGoroutine()-baseline)
}

// setUp builds the workload's images and runs the warm-up migration, whose
// numbers are discarded: its cost is part of setup_s. The warm-up is an idle
// migration of the image over the bare loopback link. What it warms is the
// engine (pools, lazy initialisation, code paged in); the link model has no
// state, sleeping through it made setup_s of the shaped workloads a
// measurement of the sandbox's timers, and a live guest on a bare loopback
// link loses a write one migration in ten (README.md, Findings).
func setUp(sp *spec, seed int64) (*fixture, error) {
	fx, err := sp.build(seed)
	if err != nil {
		return nil, err
	}
	idle := *sp
	idle.link, idle.live = link{}, false
	if warm := runMigration(&idle, fx, seed, nil, false); warm.failed > 0 {
		return nil, fmt.Errorf("warm-up migration: %w", errors.Join(warm.errs...))
	}
	return fx, nil
}

func runWorkload(sp *spec, o options) (*runResult, error) {
	baseline := runtime.NumGoroutine()
	res := &runResult{workload: sp.name, values: map[string]float64{}}

	repeats := setupRepeats
	if o.trace != 0 || o.count > 0 {
		repeats = 1 // setup_s is not reported, or a test wants one quick migration
	}
	var fx *fixture
	var setups []float64 // user CPU seconds of each set-up
	for i := 0; i < repeats; i++ {
		fx = nil // the previous fixture is garbage before the next is built, or peak_rss_mib counts two
		runtime.GC()
		user0, _, _ := rusage()
		var err error
		if fx, err = setUp(sp, o.seed); err != nil {
			return nil, err
		}
		user1, _, _ := rusage()
		setups = append(setups, user1-user0)
	}
	if left := settle(baseline); left > 0 {
		return nil, fmt.Errorf("%d goroutines left running after set-up", left)
	}

	var tr *tracer
	var floorMem *vm.Memory
	budget := o.seconds
	if o.trace != 0 {
		tr = newTracer()
		budget *= traceShare
		if !sp.link.shaped() {
			floorMem = vm.NewMemory(sp.pages, vm.PageSize)
			fillMemory(floorMem, o.seed)
		}
	}
	// An untraced run is untraced migrations back to back. A traced run
	// interleaves three things: an untraced migration (the bench.* numbers,
	// allocation counts, and the base of bench.trace_overhead), on loopback
	// the raw-socket copy of the same bytes (bench.floor_ratio), and a traced
	// migration (everything else).
	var plain, traced []sample
	begin := time.Now()
	for i := 0; ; i++ {
		if o.count > 0 {
			if i >= o.count {
				break
			}
		} else if time.Since(begin).Seconds() >= budget {
			break
		}
		seed := o.seed*1000 + int64(i)
		s := runMigration(sp, fx, seed, nil, tr != nil)
		if s.failed == 0 && floorMem != nil {
			var err error
			if s.floorS, err = floorCopy(sp, fx, floorMem); err != nil {
				return nil, fmt.Errorf("raw-socket floor copy: %w", err)
			}
		}
		plain = append(plain, s)
		if tr != nil {
			traced = append(traced, runMigration(sp, fx, seed, tr.begin(i), false))
		}
		if left := settle(baseline); left > 0 {
			s := &plain[len(plain)-1]
			s.attempted++
			s.fail(fmt.Errorf("%d goroutines left running after migration %d", left, i))
		}
	}

	for _, set := range [][]sample{plain, traced} {
		for i := range set {
			res.attempted += set[i].attempted
			res.failed += set[i].failed
			res.errs = append(res.errs, set[i].errs...)
		}
	}
	ok := func(set []sample) []sample {
		var out []sample
		for _, s := range set {
			if s.src != nil && s.failed == 0 {
				out = append(out, s)
			}
		}
		return out
	}
	plain, traced = ok(plain), ok(traced)
	if len(plain) == 0 {
		return nil, fmt.Errorf("no migration succeeded: %w", errors.Join(res.errs...))
	}

	if o.trace == 0 {
		res.defs = endToEnd
		endToEndMetrics(plain, setups, res)
		return res, nil
	}
	if len(traced) == 0 {
		return nil, fmt.Errorf("no traced migration succeeded: %w", errors.Join(res.errs...))
	}
	res.defs = perLayer
	for _, d := range perLayer {
		res.values[d.name] = 0
	}
	perLayerMetrics(sp, fx, plain, traced, res)
	if err := ladder(sp, fx, res.values); err != nil {
		return nil, err
	}
	if left := settle(baseline); left > 0 {
		return nil, fmt.Errorf("%d goroutines left running after the ladder", left)
	}
	path := filepath.Join(o.outDir, "trace-"+sp.name+".jsonl")
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	res.note = "trace file " + path
	return res, nil
}

// endToEndMetrics fills in what is gated: two counts, memory and set-up time.
// Every time measured inside a migration was demoted to bench.* (README.md);
// the migration time is still printed here, for the reader.
func endToEndMetrics(ss []sample, setups []float64, res *runResult) {
	v := res.values
	v["frozen_kib"] = median(column(ss, func(s *sample) float64 { return s.frozenKiB }))
	v["wire_ratio"] = median(column(ss, func(s *sample) float64 { return s.wireRatio }))
	_, _, v["peak_rss_mib"] = rusage()
	v["setup_s"] = slices.Min(setups)

	mig := column(ss, func(s *sample) float64 { return s.migrationS })
	res.note = fmt.Sprintf("migration_s median %.4f  p90 %.4f  n=%d: not gated, see bench.migration_s of --trace 1",
		median(mig), quantile(mig, 0.9), len(mig))
}

func perLayerMetrics(sp *spec, fx *fixture, plain, traced []sample, res *runResult) {
	v := res.values
	med := func(set []sample, f func(*sample) float64) float64 { return median(column(set, f)) }
	tmed := func(f func(*sample) float64) float64 { return med(traced, f) }

	// blockdev: the source's device reads, the destination's device writes.
	v["blockdev.read_busy_s"] = tmed(func(s *sample) float64 { return float64(s.mt.read[sideSource].ns.Load()) / 1e9 })
	v["blockdev.read_blocks"] = tmed(func(s *sample) float64 { return float64(s.mt.read[sideSource].blocks.Load()) })
	v["blockdev.read_ns_per_block"] = tmed(func(s *sample) float64 {
		return float64(s.mt.read[sideSource].ns.Load()) / float64(max(1, s.mt.read[sideSource].blocks.Load()))
	})
	v["blockdev.write_busy_s"] = tmed(func(s *sample) float64 { return float64(s.mt.write[sideDest].ns.Load()) / 1e9 })
	v["blockdev.write_blocks"] = tmed(func(s *sample) float64 { return float64(s.mt.write[sideDest].blocks.Load()) })

	// transport: the source's sends and the destination's receive waits,
	// below the engine's own meter and codec, above the link model.
	v["transport.send_busy_s"] = tmed(func(s *sample) float64 { _, _, ns := s.mt.send[sideSource].totals(); return float64(ns) / 1e9 })
	v["transport.recv_wait_s"] = tmed(func(s *sample) float64 { _, _, ns := s.mt.recv[sideDest].totals(); return float64(ns) / 1e9 })
	v["transport.frames"] = tmed(func(s *sample) float64 { n, _, _ := s.mt.send[sideSource].totals(); return float64(n) })
	v["transport.bytes_per_frame"] = tmed(func(s *sample) float64 {
		n, b, _ := s.mt.send[sideSource].totals()
		return float64(b) / float64(max(1, n))
	})
	if sp.cfg.Streams > 1 {
		v["transport.stripe_fences"] = tmed(func(s *sample) float64 {
			return float64(s.stripeFrames-s.srcFrames) / float64(sp.cfg.Streams)
		})
		v["transport.stripe_imbalance"] = tmed(func(s *sample) float64 { return s.stripeImbalance })
	}

	if traced[0].cache != nil {
		v["bcache.hit_rate"] = tmed(func(s *sample) float64 { return s.cache.HitRate() })
		v["bcache.cow_copies"] = tmed(func(s *sample) float64 { return float64(s.cache.CowCopies) })
		v["bcache.evictions"] = tmed(func(s *sample) float64 { return float64(s.cache.Evictions) })
		v["bcache.writebacks"] = tmed(func(s *sample) float64 { return float64(s.cache.Writebacks) })
	}

	v["blkback.tracked_writes"] = tmed(func(s *sample) float64 { return float64(s.back.TrackedBits + s.back.RewriteHits) })
	v["blkback.rewrite_share"] = tmed(func(s *sample) float64 {
		return float64(s.back.RewriteHits) / float64(max(1, s.back.TrackedBits+s.back.RewriteHits))
	})
	v["blkback.gate_pulls"] = tmed(func(s *sample) float64 { return float64(s.gate.Pulls) })
	v["blkback.gate_read_stall_ms"] = tmed(func(s *sample) float64 { return s.gate.ReadStallTime.Seconds() * 1e3 })
	v["blkback.gate_stale_pushes"] = tmed(func(s *sample) float64 { return float64(s.gate.StalePushes) })

	diskBlocks := func(s *sample) float64 {
		n := 0
		for _, it := range s.src.DiskIterations {
			n += it.Units
		}
		return float64(max(1, n))
	}
	frames := func(s *sample, typ int) float64 { return float64(s.mt.send[sideSource].frames[typ].Load()) }
	if sp.cfg.Dedup {
		v["dedup.ref_share"] = tmed(func(s *sample) float64 { return float64(s.src.DedupBlocks) / diskBlocks(s) })
		v["dedup.advert_round_trips"] = tmed(func(s *sample) float64 { return frames(s, msgHashAdvert) })
	}
	if sp.cfg.Delta {
		v["delta.patch_share"] = tmed(func(s *sample) float64 { return float64(s.src.DeltaBlocks) / diskBlocks(s) })
		v["delta.patch_bytes_ratio"] = tmed(func(s *sample) float64 {
			if s.src.DeltaBlocks == 0 {
				return 0
			}
			sent := &s.mt.send[sideSource]
			header := int64(transport.Message{}.FrameSize())
			payload := sent.bytes[msgDeltaPatch].Load() - header*sent.frames[msgDeltaPatch].Load()
			return float64(payload) / float64(s.src.DeltaBlocks*blockdev.BlockSize)
		})
	}

	phase := func(name string, scale float64) float64 {
		return tmed(func(s *sample) float64 { return s.mt.phase(sideSource, name).Seconds() * scale })
	}
	v["core.phase_handshake_ms"] = phase(core.PhaseHandshake, 1e3)
	v["core.phase_disk_precopy_s"] = phase(core.PhaseDiskPreCopy, 1)
	v["core.phase_mem_precopy_ms"] = phase(core.PhaseMemPreCopy, 1e3)
	v["core.phase_freeze_ms"] = phase(core.PhaseFreezeCopy, 1e3)
	v["core.phase_postcopy_ms"] = phase(core.PhasePostCopy, 1e3)
	v["core.disk_iterations"] = tmed(func(s *sample) float64 { return float64(len(s.src.DiskIterations)) })
	v["core.retransferred_blocks"] = tmed(func(s *sample) float64 { return float64(s.src.RetransferredBlocks()) })
	v["core.frozen_blocks"] = tmed(func(s *sample) float64 { return float64(s.src.BlocksPushed + s.src.BlocksPulled) })
	v["core.pushed_blocks"] = tmed(func(s *sample) float64 { return float64(s.src.BlocksPushed) })
	v["core.pulled_blocks"] = tmed(func(s *sample) float64 { return float64(s.src.BlocksPulled) })
	v["core.allocs_per_migration"] = med(plain, func(s *sample) float64 { return s.mallocs })
	v["core.alloc_bytes_per_migration"] = med(plain, func(s *sample) float64 { return s.allocBytes })
	v["core.self_share"] = tmed(func(s *sample) float64 {
		sum := s.mt.phaseSum(sideSource)
		if sum <= 0 {
			return 0
		}
		return max(0, 1-s.mt.srcCover.total.Seconds()/sum.Seconds())
	})

	memIters := func(s *sample) []int {
		var units []int
		for _, it := range s.src.MemIterations {
			units = append(units, it.Units)
		}
		return units
	}
	v["vm.mem_iterations"] = tmed(func(s *sample) float64 { return float64(len(memIters(s)) - 1) }) // the last entry is the freeze
	v["vm.mem_pages_sent"] = tmed(func(s *sample) float64 {
		n := 0
		for _, u := range memIters(s) {
			n += u
		}
		return float64(n)
	})
	v["vm.final_dirty_pages"] = tmed(func(s *sample) float64 {
		u := memIters(s)
		return float64(u[len(u)-1])
	})

	// bench.*: the harness's self-checks, and the end-to-end metrics that do
	// not repeat well enough on a shared two-core sandbox to be gated
	// (README.md). All from the untraced migrations of this run.
	mig := column(plain, func(s *sample) float64 { return s.migrationS })
	down := column(plain, func(s *sample) float64 { return s.downtimeMs })
	gib := float64(fx.logical+int64(sp.pages)*vm.PageSize) / (1 << 30)
	v["bench.samples"] = float64(len(traced))
	v["bench.trace_overhead"] = tmed(func(s *sample) float64 { return s.migrationS }) / median(mig)
	v["bench.guest_lateness_ms"] = med(plain, func(s *sample) float64 { return s.latenessMs })
	v["bench.migration_s"] = median(mig)
	v["bench.migration_p90_s"] = quantile(mig, 0.9)
	if !sp.link.shaped() {
		// Each raw copy ran right after its migration, so the per-pair ratio
		// cancels most of what the host did during that pair.
		v["bench.floor_ratio"] = med(plain, func(s *sample) float64 { return s.floorS / s.migrationS })
	}
	v["bench.downtime_ms"] = median(down)
	v["bench.downtime_p90_ms"] = quantile(down, 0.9)
	v["bench.disruption_ms"] = med(plain, func(s *sample) float64 { return s.disruptionMs })
	v["bench.cpu_s_per_gib"] = med(plain, func(s *sample) float64 { return s.cpuS }) / gib
	v["bench.fail_ratio"] = float64(res.failed) / float64(max(1, res.attempted))
	v["bench.iqr_share"] = quartileSpread(mig)
	v["bench.phase_sum_share"] = tmed(func(s *sample) float64 { return s.mt.phaseSum(sideSource).Seconds() / s.migrationS })
}

// output is the result line's shape, fixed by the benchmark contract.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) print(w *os.File) {
	fmt.Fprintf(w, "workload %s: %d attempted, %d failed\n", r.workload, r.attempted, r.failed)
	for _, err := range r.errs {
		fmt.Fprintf(w, "  failure: %v\n", err)
	}
	out := output{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range r.defs {
		val := r.values[d.name]
		out.Metrics[d.name] = metricValue{val, d.unit}
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, val, d.unit)
	}
	if r.note != "" {
		fmt.Fprintf(w, "  (%s)\n", r.note)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(line))
}
