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
//     An extent whose blocks are all zero travels as one header-only
//     MsgZeroExtent: the head stage of the source's extent encoder chain
//     (zero → dedup → delta → literal), built whenever extents, Dedup or
//     Delta are on. Memory passes batch the same way: up to that many pages,
//     literal pages and page deltas mixed, travel in one MsgMemPages frame.
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
//     (DialStriped/AcceptStriped/NewStriped; each connection labels the
//     bundle's width). Control frames are pinned to stream 0 behind a
//     broadcast barrier, so SUSPEND/RESUME/ITER_END keep their ordering.
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
// # Stop rule and pacing
//
// Pre-copy stops by the paper's fixed rule (§IV-A-1), one exported function,
// ContinuePreCopy: when the dirty set is down to its threshold, when the
// iteration budget is spent, or when the dirty rate has caught up with the
// transfer rate. Thresholds and budgets are constants, not Config fields
// (DefaultMaxDiskIters, DefaultDiskDirtyThreshold, DefaultMaxMemIters,
// DefaultMemDirtyThreshold). Its callers are the engine's one pre-copy loop and the
// simulator's one pre-copy driver, which runs the disk and memory phases and
// the fleet model; dirty counts are fractional, so the simulator's analytic
// models ask with their expected counts. Pacing is one cap (§VI-C-3):
// min(Config.BandwidthLimit, Config.Budget's live share), re-read before
// every paced frame. Extents are cut at Config.MaxExtentBlocks. With every
// knob at its default the engine is wire-identical to the seed protocol,
// which a golden frame-trace test enforces.
//
// # Content-addressed deduplication
//
// The block-bitmap deduplicates positionally — a block dirtied many times
// ships once per iteration. Config.Dedup deduplicates by content: during
// disk pre-copy the source adverts each extent's per-block fingerprints
// (SHA-256/128), the destination writes at once every block its fingerprint
// index can produce — retained peer copies, clone siblings' disks, blocks
// received earlier in the same migration, and the implicit zero block — and
// answers with a want-bitmap naming the rest, sent literally (an extent
// that is all zeros never reaches the advert: the zero stage above dedup
// sends it as one MsgZeroExtent, without a round trip). The index is
// advisory and verify-on-read: a stale entry degrades to a literal send,
// never to wrong bytes. hostd maintains one in-memory index per machine,
// beside its retained disks, so evacuating a fleet of template-provisioned
// clones between the same hosts ships fingerprints instead of images —
// `bbench -exp dedup` models a clone-fleet evacuation moving 8.6x fewer
// bytes. Dedup is a source setting: the adverts and
// references name themselves, and every destination answers them (hostd's
// announce only hints it to ready the machine index first).
//
// # Fault tolerance and resumable migration
//
// By default a connection failure is fatal, matching the seed protocol.
// Setting Config.MaxRetries (with a Config.Redial callback on the source
// and a Config.WaitReconnect callback on the destination) makes the
// migration resumable: the source's HELLO offers a session token, the
// source records each pre-copy iteration's pending set, and on a link
// failure it backs off, re-dials, and exchanges a resume handshake in which
// the destination reports exactly what it has received — down to a
// per-iteration transfer-cursor bitmap. The source then re-enters the
// earliest unconfirmed phase sending only the blocks still owed, so a flap
// deep into a 40 GB transfer costs roughly the frames in flight, not a
// restart. Config.JournalPath, with or without MaxRetries, saves the disk
// blocks still owed — the paper's persistent block-bitmap, in the
// bitmap.SaveFile format — at every pre-copy iteration start and at the
// freeze, and removes the file on success, so a restarted source can
// cold-resume as an incremental migration from it (cmd/bbmig -resume).
// Fault-free resumable runs add only the token to the HELLO payload; with
// resumption disabled the wire format is byte-identical to the seed
// protocol.
//
// # Cluster orchestration
//
// internal/cluster manages a fleet of host daemons above all of this: a
// placement engine scores destinations by free capacity, migration load,
// and retained content; an admission-controlled scheduler runs many
// concurrent migrations under per-host and fleet-wide caps with priority
// queues and queued-job cancellation; and Drain/Rebalance build maintenance
// operations on both. Concurrent migrations share the network through a
// RateBudget: each one's Config.Budget points at it and its pacing rate is
// re-read on every paced frame, so the per-migration share re-splits live
// as migrations start and finish. Drains can pre-sync each domain's
// divergence to its target while the guest keeps running (hostd.SyncOut),
// shrinking the cutover to the recent write set — the paper's Incremental
// Migration applied to planned maintenance. cmd/bbcluster demonstrates the
// drain/rebalance/status verbs on an in-process fleet, and `bbench -exp
// cluster` sweeps evacuation makespan and per-VM downtime against scheduler
// concurrency at paper scale.
//
// # The destination follows the source
//
// Nothing is negotiated, and no setting has to match on both endpoints. The
// striped bundle's connections label its width, CompressLevel is a bit in
// the HELLO, Dedup and Delta frames name themselves, and a resumable source
// offers its token in the HELLO, so a destination with the zero Config
// follows whatever the source chose. Everything else — thresholds, Workers,
// MaxExtentBlocks, BandwidthLimit, Budget, OnEvent and the lifecycle hooks
// — is local and may differ freely between endpoints.
//
// Subpackages (internal/...) hold the substrates: bitmap, blockdev, blkback,
// transport, vm, workload, metrics, and the paper-scale simulator sim.
// cmd/bbmig is a runnable migration daemon, cmd/bbcluster drives an in-process
// fleet, and cmd/bbench regenerates every table and figure of the paper's
// evaluation (plus a machine-readable BENCH_*.json suite).
package bbmig
