package main

import "bbmig/internal/transport"

// metricDef names one metric. The tables below are the single list of what
// the benchmark prints; BENCHMARK.json repeats them with their bounds, and
// main_test.go holds the two to each other.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd is the gated part of what a user of the system would see; every
// workload reports every one of them, from untraced migrations only. The
// times a user would also see (migration_s, floor_ratio, downtime_ms,
// disruption_ms, cpu_s_per_gib) and fail_ratio keep their names under bench.
// in perLayer: they do not repeat within a gateable bound on the sandbox.
var endToEnd = []metricDef{
	{"frozen_kib", "KiB", "lower"},
	{"wire_ratio", "ratio", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer comes from the traced pass: in-situ counters and timings from
// the decorators (medians over the traced migrations), and the ex-situ
// ladder. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"bitmap.scan_ns_per_extent", "ns", "lower"},
	{"bitmap.extents", "count", "lower"},
	{"bitmap.clone_us", "us", "lower"},
	{"bitmap.marshal_us", "us", "lower"},
	{"bitmap.marshal_bytes", "B", "lower"},
	{"bitmap.set_ns", "ns", "lower"},
	{"bitmap.swap_us", "us", "lower"},

	{"blockdev.read_busy_s", "s", "lower"},
	{"blockdev.read_blocks", "count", "lower"},
	{"blockdev.read_ns_per_block", "ns", "lower"},
	{"blockdev.write_busy_s", "s", "lower"},
	{"blockdev.write_blocks", "count", "lower"},

	{"bcache.hit_rate", "ratio", "higher"},
	{"bcache.cow_copies", "count", "lower"},
	{"bcache.evictions", "count", "lower"},
	{"bcache.writebacks", "count", "lower"},
	{"bcache.live_read_ns_per_block", "ns", "lower"},
	{"bcache.snapshot_read_ns_per_block", "ns", "lower"},

	{"blkback.tracked_writes", "count", "lower"},
	{"blkback.rewrite_share", "ratio", "higher"},
	{"blkback.submit_ns_tracking_on", "ns", "lower"},
	{"blkback.submit_ns_tracking_off", "ns", "lower"},
	{"blkback.gate_pulls", "count", "lower"},
	{"blkback.gate_read_stall_ms", "ms", "lower"},
	{"blkback.gate_stale_pushes", "count", "lower"},

	{"transport.send_busy_s", "s", "lower"},
	{"transport.recv_wait_s", "s", "lower"},
	{"transport.frames", "count", "lower"},
	{"transport.bytes_per_frame", "B", "higher"},
	{"transport.frame_ns_4k", "ns", "lower"},
	{"transport.frame_ns_256k", "ns", "lower"},
	{"transport.allocs_per_frame", "count", "lower"},
	{"transport.compress_ns_per_block", "ns", "lower"},
	{"transport.compress_ratio", "ratio", "higher"},
	{"transport.compress_allocs_per_frame", "count", "lower"},
	{"transport.stripe_ns_per_frame", "ns", "lower"},
	{"transport.stripe_fences", "count", "lower"},
	{"transport.stripe_imbalance", "ratio", "lower"},

	{"dedup.fingerprint_ns_per_block", "ns", "lower"},
	{"dedup.answer_ns_per_fp", "ns", "lower"},
	{"dedup.ref_share", "ratio", "higher"},
	{"dedup.advert_round_trips", "count", "lower"},
	{"dedup.allocs_per_extent", "count", "lower"},

	{"delta.sig_ns_per_block", "ns", "lower"},
	{"delta.diff_ns_per_block", "ns", "lower"},
	{"delta.apply_ns_per_block", "ns", "lower"},
	{"delta.patch_share", "ratio", "higher"},
	{"delta.patch_bytes_ratio", "ratio", "lower"},
	{"delta.allocs_per_block", "count", "lower"},

	{"core.phase_handshake_ms", "ms", "lower"},
	{"core.phase_disk_precopy_s", "s", "lower"},
	{"core.phase_mem_precopy_ms", "ms", "lower"},
	{"core.phase_freeze_ms", "ms", "lower"},
	{"core.phase_postcopy_ms", "ms", "lower"},
	{"core.disk_iterations", "count", "lower"},
	{"core.retransferred_blocks", "count", "lower"},
	{"core.frozen_blocks", "count", "lower"},
	{"core.pushed_blocks", "count", "lower"},
	{"core.pulled_blocks", "count", "lower"},
	{"core.allocs_per_migration", "count", "lower"},
	{"core.alloc_bytes_per_migration", "B", "lower"},
	{"core.self_share", "ratio", "lower"},

	{"vm.mem_iterations", "count", "lower"},
	{"vm.mem_pages_sent", "count", "lower"},
	{"vm.final_dirty_pages", "count", "lower"},

	{"bench.samples", "count", "higher"},
	{"bench.trace_overhead", "ratio", "lower"},
	{"bench.guest_lateness_ms", "ms", "lower"},
	{"bench.migration_s", "s", "lower"},
	{"bench.migration_p90_s", "s", "lower"},
	{"bench.floor_ratio", "ratio", "higher"},
	{"bench.downtime_ms", "ms", "lower"},
	{"bench.downtime_p90_ms", "ms", "lower"},
	{"bench.disruption_ms", "ms", "lower"},
	{"bench.cpu_s_per_gib", "s/GiB", "lower"},
	{"bench.fail_ratio", "ratio", "lower"},
	{"bench.iqr_share", "ratio", "lower"},
	{"bench.phase_sum_share", "ratio", "higher"},
}

// Frame types the per-layer metrics single out, as counter indices.
const (
	msgHashAdvert = int(transport.MsgHashAdvert)
	msgDeltaPatch = int(transport.MsgDeltaPatch)
)
