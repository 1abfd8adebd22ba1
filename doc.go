// Package bbmig documents the block-bitmap whole-system live VM migration
// library, a reproduction of Luo et al., "Live and Incremental Whole-System
// Migration of Virtual Machines Using Block-Bitmap" (IEEE CLUSTER 2008). It
// holds no code: the engine is internal/core, and callers import it and the
// substrates it runs on directly.
//
// The library migrates a virtual machine's complete run-time state — local
// disk storage, memory, and CPU state — between two hosts with no shared
// storage, keeping the VM live throughout:
//
//	src := core.Host{VM: guest, Backend: blkback.NewBackend(disk, guest.DomainID)}
//	report, err := core.MigrateSource(core.Config{}, src, conn, nil)
//
// Three phases (§IV): pre-copy iteratively ships the disk then memory while
// a block-bitmap records concurrent writes; freeze-and-copy suspends the VM
// just long enough to send the final dirty pages, CPU state, and the bitmap;
// post-copy resumes the VM on the destination while the source pushes the
// remaining dirty blocks and the destination pulls any the guest reads
// first. Passing a bitmap from a previous migration's destination gate as
// the `initial` argument performs Incremental Migration back (§V).
//
// # Parallel transfer
//
// The paper ships every dirty block as its own frame over one ordered
// connection; four Config knobs lift that limit while defaulting to the
// paper's exact behavior:
//
//   - Config.MaxExtentBlocks coalesces runs of contiguous dirty blocks into
//     single MsgExtent frames (Arg packs start and count, payload carries
//     the concatenated blocks), amortizing per-frame header and flush cost.
//   - Config.Workers is the lane count of one pool type: the source's one
//     extent walker cuts in cursor order and reads and encodes (frame,
//     compress, send) on that many lanes when the chain is the bare
//     literal, and the destination applies received frames on as many.
//     Parallelism stays within one pre-copy iteration — each block/page
//     number appears at most once per iteration — and iteration boundaries
//     drain the pools.
//   - Config.Readahead puts a queue that many extents deep between the
//     walker's read lanes and its encode lanes, under any Workers and any
//     encoder chain.
//   - Config.Streams stripes data frames round-robin across N connections
//     (DialStriped/AcceptStriped/NewStriped). Control frames are pinned to
//     stream 0 behind a broadcast barrier, so SUSPEND/RESUME/ITER_END keep
//     their ordering against data on other streams.
//
// The default (1 stream, extent size 1, 1 worker) is wire-compatible with
// the seed protocol.
//
// # Phase pipeline and progress events
//
// Every scheme the library implements — TPM, IM, and the three comparison
// baselines — is a pipeline of named phases (handshake, disk-precopy,
// mem-precopy, freeze-and-copy, post-copy, …) over one shared transfer
// substrate. Both endpoints publish typed progress events as the pipeline
// runs: set Config.OnEvent and receive PhaseStart/PhaseEnd transitions,
// IterationEnd summaries, throttled BytesTransferred heartbeats, the
// Suspended/Resumed downtime bounds, PullServed notifications, and a
// terminal Completed or Failed. Handlers may be called concurrently and
// must not block. ProgressTracker folds the stream into a queryable
// Progress snapshot — the hostd layer uses exactly this to answer
// live-status queries for in-flight migrations.
//
// # Policies
//
// The Policy interface owns the decisions the engine cannot measure for
// itself: pre-copy stop conditions, the live extent coalescing limit, and
// pre-copy pacing. DefaultPolicy (the nil default) reproduces the paper's behavior
// exactly — with the other knobs at their defaults it is wire-identical to
// the seed protocol, which a golden frame-trace test enforces. AdaptivePolicy
// grows the extent size by slow start from observed throughput; on a
// latency-bound link it recovers the hand-tuned configuration's throughput
// without anyone picking constants.
//
// # Content-addressed deduplication
//
// The block-bitmap deduplicates positionally — a block dirtied many times
// ships once per iteration. Config.Dedup deduplicates by content: during
// disk pre-copy the source adverts each extent's per-block fingerprints
// (SHA-256/128), the destination answers with a want-bitmap naming the
// content it cannot already produce, and everything else travels as
// 16-byte references materialized from the destination's fingerprint
// index — retained peer copies, clone siblings' disks, blocks received
// earlier in the same migration, and the implicit zero block (all-zero
// runs are elided without even a round trip). The index is advisory and
// verify-on-read: a stale entry degrades to a literal send, never to wrong
// bytes. hostd maintains one in-memory index per machine, beside its
// retained disks, so evacuating a fleet of template-provisioned clones
// between the same hosts ships fingerprints
// instead of images — `bbench -exp dedup` models a clone-fleet evacuation
// moving 5-10x fewer bytes. Dedup is a source setting: the adverts and
// references name themselves, and every destination answers them (hostd's
// announce only hints it to ready the machine index first).
//
// # Fault tolerance and resumable migration
//
// By default a connection failure is fatal, matching the seed protocol.
// Setting Config.MaxRetries (with a Config.Redial callback on the source
// and a Config.WaitReconnect callback on the destination) makes the
// migration resumable: the source's HELLO offers a session token, the source
// checkpoints a journal (pipeline cursor + pending bitmap — the paper's
// persistent block-bitmap put to work) at phase and iteration boundaries,
// and on a link failure it backs off, re-dials, and exchanges a resume
// handshake in which the destination reports exactly what it has received —
// down to a per-iteration transfer-cursor bitmap. The source then re-enters
// the earliest unconfirmed phase sending only the blocks still owed, so a
// flap deep into a 40 GB transfer costs roughly the frames in flight, not a
// restart. Config.JournalPath persists the journal so a restarted source
// can cold-resume incrementally (cmd/bbmig -resume). Fault-free resumable
// runs add only the token to the HELLO payload; with resumption disabled
// the wire format is byte-identical to the seed protocol.
//
// # Cluster orchestration
//
// internal/cluster manages a fleet of host daemons above all of this: a
// placement engine scores destinations by free capacity, migration load,
// and link bandwidth; an admission-controlled scheduler runs many
// concurrent migrations under per-host and fleet-wide caps with priority
// queues and queued-job cancellation; and Drain/Rebalance build maintenance
// operations on both. Concurrent migrations share the network through a
// RateBudget: each one's Config carries a BudgetPolicy whose pacing verdict
// is re-read on every paced frame, so the per-migration share re-splits
// live as migrations start and finish. Drains can pre-sync each domain's
// divergence to its target while the guest keeps running (hostd.SyncOut),
// shrinking the cutover to the recent write set — the paper's Incremental
// Migration applied to planned maintenance. cmd/bbcluster demonstrates the
// drain/rebalance/status verbs on an in-process fleet, and `bbench -exp
// cluster` sweeps evacuation makespan and per-VM downtime against scheduler
// concurrency at paper scale.
//
// # The destination follows the source
//
// Nothing the engine can see on the wire is negotiated. CompressLevel is a
// bit in the HELLO, Dedup and Delta frames name themselves, and a resumable
// source offers its token in the HELLO, so a destination with the zero
// Config follows whatever the source chose. Only Streams must match on both
// endpoints, because the striped bundle is built before the engine runs;
// the hostd layer carries it in its announce frame. Everything else —
// thresholds, Workers, MaxExtentBlocks, BandwidthLimit, Policy, OnEvent and
// the lifecycle hooks — is local and may differ freely between endpoints.
//
// Subpackages (internal/...) hold the substrates: bitmap, blockdev, blkback,
// transport, vm, workload, metrics, and the paper-scale simulator sim. The
// examples/ directory shows complete wirings; cmd/bbmig is a runnable
// migration daemon and cmd/bbench regenerates every table and figure of the
// paper's evaluation (plus a machine-readable BENCH_*.json suite).
package bbmig
