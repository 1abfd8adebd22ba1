// Package core implements the paper's contribution: Three-Phase Migration
// (TPM) and Incremental Migration (IM) of a whole VM — local disk storage,
// memory, and CPU state — plus the three comparison baselines the paper
// argues against (freeze-and-copy, pure on-demand fetching, and Bradford-
// style delta forward-and-replay).
//
// The engine is transport-agnostic and reads time from the runtime: the same
// code migrates a VM over TCP via cmd/bbmig and over an in-process pipe in
// tests, where a testing/synctest bubble makes that time virtual and exact.
// Paper-scale runs are internal/sim's model.
package core

import (
	"time"

	"bbmig/internal/blkback"
	"bbmig/internal/dedup"
	"bbmig/internal/delta"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
)

// The pre-copy stop conditions preCopyLoop hands ContinuePreCopy, fixed as
// the paper fixes them (§IV-A-1). The memory threshold also sizes the base
// book's freeze budget (vm.NewBaseBook).
const (
	// DefaultMaxDiskIters bounds disk pre-copy iterations ("we limit the
	// maximum number of iterations to avoid endless migration", §IV-A-1).
	DefaultMaxDiskIters = 4
	// DefaultDiskDirtyThreshold stops disk pre-copy once the per-iteration
	// dirty set is this small (blocks); the remainder rides in the bitmap.
	DefaultDiskDirtyThreshold = 128
	// DefaultMaxMemIters bounds memory pre-copy iterations (Xen default
	// behaviour: ~30 rounds max, convergence usually much earlier).
	DefaultMaxMemIters = 30
	// DefaultMemDirtyThreshold suspends the VM once the dirty page set is
	// this small (pages).
	DefaultMemDirtyThreshold = 64
)

// Defaults for Config fields left zero.
const (
	// DefaultMaxExtentBlocks is the per-frame block coalescing limit: one,
	// the paper's block-per-message wire format.
	DefaultMaxExtentBlocks = 1
	// DefaultWorkers is the source read-and-encode and destination apply
	// lane count: one, the paper's sequential loops.
	DefaultWorkers = 1
	// DefaultRetryBackoff is the base reconnect delay when Config.MaxRetries
	// enables resumable migration and RetryBackoff is left zero.
	DefaultRetryBackoff = 100 * time.Millisecond
)

// RedialFunc re-establishes the source side's transport after a connection
// failure. See Config.Redial.
type RedialFunc func() (transport.Conn, error)

// ReconnectFunc hands the destination engine a reconnecting source's fresh
// connection together with the validated session epoch. See
// Config.WaitReconnect.
type ReconnectFunc func(token transport.SessionToken, lastEpoch uint32) (transport.Conn, uint32, error)

// Config parameterizes a migration.
//
// The destination follows the source: no field has to match on both ends.
// Streams, CompressLevel, Dedup, Delta and MaxRetries are source-side — each
// connection of a striped bundle labels its width, compression is a bit in
// the HELLO, dedup and delta frames name themselves, a resumable source
// offers its token in the HELLO — and a destination with the zero Config
// accepts all of them. Every other field is local to the side that sets it.
type Config struct {
	// BandwidthLimit caps the pre-copy transfer rate in bytes/second
	// (§VI-C-3). Zero or Unlimited disables the cap. The cap is not
	// applied to the freeze-and-copy phase: throttling the downtime-
	// critical transfer would be self-defeating, and the paper limits only
	// the pre-copy bandwidth.
	BandwidthLimit int64

	// Budget, when non-nil, further caps pre-copy pacing at the budget's live
	// share: the rate is min(BandwidthLimit, Budget.Share()), re-read before
	// every paced frame, so migrations joining or leaving a shared budget
	// re-divide it mid-iteration. The cluster orchestrator hands every
	// migration it schedules its one fleet budget, joined at admission; the
	// engine itself never joins. Nil (the default) paces by BandwidthLimit
	// alone. Local-only.
	Budget *RateBudget

	// Streams is the number of transport connections the source fans data
	// frames across. The engine never reads it: it migrates over whatever
	// Conn it is handed. The connection-owning layers (cmd/bbmig, hostd) dial
	// a transport.DialStriped bundle this wide, which bounds it to
	// [1, transport.MaxStreams], and their destinations learn the width from
	// the bundle's labels. Zero or one selects one connection, the paper's
	// single ordered stream. Source-side.
	Streams int

	// MaxExtentBlocks caps how many contiguous dirty blocks are coalesced
	// into one MsgExtent frame, and how many pages of a memory pass — literal
	// pages and page deltas mixed, contiguous or not — travel in one
	// MsgMemPages frame. Zero or one reproduces the paper's block- and
	// page-per-message wire format (and is wire-compatible with it); larger
	// values amortize the per-frame header and flush cost so iterations, and
	// the freeze's final pages, become bandwidth- rather than latency-bound,
	// and send an extent whose blocks are all zero as one header-only
	// MsgZeroExtent — the head stage of the source's extent encoder chain,
	// which Dedup and Delta also switch on.
	MaxExtentBlocks int

	// Workers is the lane count of the one pool type both endpoints run:
	// on the source, the lanes that read the extents the walker has cut —
	// so a latency-bound device is read that many extents at a time — and
	// encode them (frame, compress, send), when the encoder chain is
	// order-free — the bare literal; a Dedup or Delta stage holds it to one
	// lane — and on the destination, the lanes that apply received data
	// frames. Zero or one selects the paper's sequential loops. Lanes only
	// run within one pre-copy iteration, where every block and page number
	// appears at most once, so reordering is safe; iteration boundaries
	// remain synchronization points.
	Workers int

	// Readahead is how many extents the source reads into pooled buffers
	// ahead of the encoder, overlapping device reads with transport writes:
	// it splits the walker's read and encode stages onto separate lanes with
	// a queue that deep between them. It reorders nothing — on an
	// order-bound chain extents reach the encoder in cursor order at any
	// depth — so the knob is purely local and needs no negotiation. It is
	// honoured on every disk send pass — literal, dedup and delta alike,
	// under any Workers, which widens both stages. Zero (the default) keeps
	// read and send on one goroutine per lane, the fully sequential
	// read→send loop at one lane.
	Readahead int

	// CompressLevel, when non-zero on the source, DEFLATE-compresses the
	// migration stream at that flate level (-1 = flate default, 1 fastest …
	// 9 best, -2 Huffman-only). Source-side: the source's HELLO says so, and
	// every frame after the HELLO_ACK, both ways, rides the compressed
	// framing; the destination follows, compressing its replies at flate's
	// default. A payload that does not shrink goes out raw behind a one-byte
	// marker (transport.Compressed). Zero (the default) keeps the seed's
	// uncompressed wire format.
	CompressLevel int

	// Dedup, when true, enables content-addressed deduplication for disk
	// pre-copy traffic: the source adverts each extent's block fingerprints
	// (MsgHashAdvert), the destination writes at once every block its
	// fingerprint index can produce — retained peer copies, clone siblings'
	// disks, blocks received earlier, zeros — and wants the rest
	// (MsgHashWant), which go to Delta when set, else travel literally.
	// Source-side: every destination answers. Probes keep cursor order, so
	// Workers does not parallelize the send; memory pages, freeze-and-copy,
	// and post-copy pushes always travel literally, and a wholly zero extent
	// as one MsgZeroExtent. False (the default) keeps the seed wire format.
	Dedup bool

	// DedupIndex is the destination-side fingerprint index consulted to
	// answer hash adverts (ignored on the source). Nil builds a fresh
	// per-migration index at the first advert, which still elides zero
	// blocks and deduplicates repeated content within the migration; hostd
	// passes its machine-wide index so retained and clone-sibling disks dedup
	// across migrations. The index may be shared between concurrent
	// migrations — it is concurrency-safe and verify-on-read.
	DedupIndex *dedup.Index

	// DedupName is the source name under which the destination's own VBD is
	// registered (and its received blocks observed) in DedupIndex; empty
	// selects "self". hostd passes a stable per-domain name so the
	// observations outlive the migration.
	DedupName string

	// SwarmPeers lists the peer hostd swarm-serve addresses a destination's
	// dedup session may fan its want-set across, over sidecar fetch sessions,
	// before answering each hash advert: content a peer's index can produce
	// (and verify on read) arrives over the peers' uplinks and is written at
	// the advert, turning an evacuation from a source-bandwidth problem into
	// a fleet-bandwidth problem. A non-empty list is the permission; empty
	// (the default) keeps dedup single-source. Swarm frames ride separate
	// connections, and a block no peer produces stays wanted and falls back
	// to a literal from the source. Peers that refuse, die, or serve content
	// that fails fingerprint verification are dropped for the rest of the
	// migration — correctness never depends on peer health. The cluster
	// orchestrator nominates peers from placement's content-overlap data; raw
	// engine users pass addresses directly. The source engine ignores the
	// list; hostd's MigrateOut reads it to permit the swarm in its announce,
	// and a receiving hostd clears it for a migration whose announce did not.
	SwarmPeers []string

	// swarmDial opens one sidecar connection to a SwarmPeers address; nil
	// selects the TCP dialer. Tests inject in-process pipes here.
	swarmDial func(addr string) (transport.Conn, error)

	// Delta, when true, enables rsync-style delta encoding for disk
	// pre-copy traffic — the WAN path for content that diverged but stayed
	// similar, which exact-match dedup cannot exploit. Per extent the
	// source requests a chunk signature of the destination's current
	// content (MsgDeltaSig), diffs the new content against it, and ships a
	// COPY/LITERAL op stream (MsgDeltaPatch) when — and only when — the
	// patch is smaller than the literal. The destination applies each patch
	// against its own content and verifies the patch's SHA-256 trailer
	// before any byte lands; a mismatch is refused back to the source,
	// which re-sends the extent literally before the pass ends — degraded,
	// never wrong. Source-side, like Dedup: every destination answers the
	// frames. With Dedup set too, only the blocks the want-bitmap asked for
	// are delta-encoded: exact matches land at the advert, near matches as
	// patches. Cursor order, Workers and what always travels literally are as
	// for Dedup. False (the default) keeps the seed wire format byte for byte.
	Delta bool

	// DeltaChunk is the signature chunk size in bytes used by the
	// destination when answering signature requests (ignored on the
	// source — the chunk size travels inside every signature and patch, so
	// the endpoints need not agree on it). Zero selects delta.DefaultChunk
	// (128: a 4 KiB block signs in 392 bytes); out-of-range values are
	// clamped to [delta.MinChunk, delta.MaxChunk]. Smaller chunks find
	// finer-grained reuse at the cost of larger signatures.
	DeltaChunk int

	// OnEvent, when non-nil, receives typed progress events (phase
	// transitions, iteration ends, byte heartbeats, suspend/resume, pull
	// service) as the migration runs. May be invoked concurrently; must not
	// block. Local-only.
	OnEvent EventFunc

	// MaxRetries, when positive, makes the source side resumable: its HELLO
	// offers a session token, progress is checkpointed at
	// phase and iteration boundaries, and a connection failure re-dials
	// (via Redial) up to MaxRetries times, re-entering the interrupted
	// phase and sending only the blocks still owed instead of restarting.
	// Zero (the default) keeps the seed's fail-fast behaviour and its exact
	// wire format.
	MaxRetries int

	// RetryBackoff is the base delay before the first reconnect attempt;
	// each further attempt doubles it (capped at 32x). Zero selects
	// DefaultRetryBackoff.
	RetryBackoff time.Duration

	// Redial re-establishes the migration transport after a connection
	// failure (source side). The engine performs the session-resume
	// exchange on the returned connection itself; the callback only
	// supplies a fresh link (re-dialing TCP, rebuilding nothing else —
	// resumed epochs always run on a single stream, though compression
	// carries over, above the rebind point). Required for MaxRetries to
	// take effect. The engine closes superseded connections; the most
	// recently returned one is the caller's to close after the migration
	// ends.
	Redial RedialFunc

	// WaitReconnect, when non-nil, makes the destination side resumable: it
	// accepts a resumable source's token, and on a connection failure the
	// engine parks here until the layer that owns the listener hands it the
	// reconnecting source's fresh link. Destination-side. The
	// callback must validate the MsgSessionResume frame itself (token
	// match, epoch > lastEpoch — transport.AcceptResume does exactly this)
	// and return the connection with the frame's epoch.
	WaitReconnect ReconnectFunc

	// JournalPath, when non-empty, makes the TPM/IM source save the disk
	// blocks it still owes to this file (bitmap.SaveFile) at every
	// pre-copy iteration start and at the freeze, with or without
	// MaxRetries, and remove the file once the migration succeeds, so an
	// operator can restart a crashed source and re-run the migration
	// incrementally from it instead of re-sending the whole image
	// (cmd/bbmig -resume). In-process reconnect resume does not read it.
	JournalPath string

	// OnFreeze, when non-nil, is invoked on the source right before the VM
	// is suspended; the caller must quiesce guest I/O before returning
	// (the Router helper does this).
	OnFreeze func()

	// OnResume, when non-nil, is invoked on the destination right after
	// the VM resumes, handing over the post-copy gate the guest's I/O must
	// now flow through.
	OnResume func(*blkback.PostCopyGate)
}

func (c Config) withDefaults() Config {
	if c.BandwidthLimit <= 0 {
		c.BandwidthLimit = Unlimited
	}
	if c.MaxExtentBlocks <= 0 {
		c.MaxExtentBlocks = DefaultMaxExtentBlocks
	}
	if c.MaxExtentBlocks > transport.MaxExtentBlocks {
		c.MaxExtentBlocks = transport.MaxExtentBlocks
	}
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers
	}
	if c.Readahead < 0 {
		c.Readahead = 0
	}
	if c.CompressLevel < -2 {
		c.CompressLevel = -2
	}
	if c.CompressLevel > 9 {
		c.CompressLevel = 9
	}
	if c.DeltaChunk <= 0 {
		c.DeltaChunk = delta.DefaultChunk
	}
	if c.DeltaChunk < delta.MinChunk {
		c.DeltaChunk = delta.MinChunk
	}
	if c.DeltaChunk > delta.MaxChunk {
		c.DeltaChunk = delta.MaxChunk
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = DefaultRetryBackoff
	}
	return c
}

// Host bundles the pieces of one physical machine participating in a
// migration: the VM (source: the running guest; destination: the shell that
// will receive it) and the block backend over the local disk.
type Host struct {
	VM      *vm.VM
	Backend *blkback.Backend
}
