// Package sim replays the paper's evaluation at full scale — a 39 070 MB
// VBD, 512 MB of guest memory, a Gigabit LAN — in milliseconds of wall time.
//
// The real engine in internal/core moves actual bytes and cannot usefully
// push 39 GB through a laptop for every benchmark run, so sim mirrors the
// engine's phase logic (the same iteration rules, stop conditions, bitmap
// mechanics, and push/pull post-copy) at bitmap granularity on a virtual
// timeline: block *numbers* move, block *contents* don't. Workload
// generators are shared with the real engine, so the dirty-block dynamics
// that drive every Table I/II number come from the same access streams the
// integration tests replay against real devices. One rule is not mirrored:
// a simulated iteration ships its whole set, while the engine leaves out
// units the guest has already dirtied again (core.owedCursor), so simulated
// bytes and times are upper bounds on the engine's. So is the freeze window:
// the simulated final page set costs a page per page, while the engine sends
// a page it has seen dirty as the words that changed (vm.BaseBook).
//
// Two resources are modelled, calibrated to the paper's testbed:
//
//   - the migration path (NetBytesPerSec): the effective Gigabit rate,
//     39 097 MB / 796.1 s ≈ 49.1 MB/s in Table I's web row;
//   - the shared local disk (DiskBytesPerSec): when the migration's
//     sequential scan and the guest's I/O overlap, both are scaled
//     proportionally to fit the disk's contended capacity — the mechanism
//     behind Fig. 6's Bonnie++ throughput dip and §VI-C-3's observation
//     that capping migration bandwidth halves the impact while lengthening
//     pre-copy ~37%.
package sim

import (
	"fmt"
	"math"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/core"
	"bbmig/internal/metrics"
	"bbmig/internal/workload"
)

// Params configures one simulated migration.
type Params struct {
	// DiskMB is the VBD size (paper: 39 070 MB ≈ a "40 GB" VBD).
	DiskMB int
	// MemMB is the guest memory size (paper: 512 MB).
	MemMB int
	// Workload selects the guest load; Seed fixes its randomness.
	Workload workload.Kind
	Seed     int64

	// NetBytesPerSec is the effective migration path bandwidth.
	NetBytesPerSec float64
	// DiskBytesPerSec is the contended disk capacity available when the
	// migration scan and guest I/O overlap.
	DiskBytesPerSec float64
	// RateLimit caps the migration's pre-copy bandwidth (§VI-C-3);
	// 0 means unlimited.
	RateLimit float64

	// MaxExtentBlocks is the per-frame block coalescing limit; zero or one
	// models the paper's block-per-message format. Larger extents amortize
	// the per-frame header and the FrameLatency stall.
	MaxExtentBlocks int
	// FrameLatency is the per-frame serialization stall of the transfer
	// path (per-message flush and handling). It is amortized across the
	// frame's payload. Zero — the default — folds the stall into
	// NetBytesPerSec the way the paper's measured effective bandwidth
	// already does, so calibrated results are unchanged.
	FrameLatency time.Duration

	// AdaptiveExtents models core.AdaptivePolicy's slow-start extent
	// growth: the live coalescing limit starts at MaxExtentBlocks and
	// doubles each integration step the migration transfers, up to
	// adaptiveExtentCap. With FrameLatency zero it changes nothing.
	AdaptiveExtents bool

	// Dedup models negotiated content-addressed transfer (core.Config.Dedup)
	// on the first disk pre-copy iteration — the bulk image copy: every
	// block costs a fingerprint advert, and the DedupShare fraction whose
	// content the destination can already produce travels as a 16-byte
	// reference instead of a literal. Later iterations carry fresh guest
	// writes and are modelled literal (conservative: rewrites of identical
	// content would dedup too).
	Dedup bool
	// DedupShare is the fraction of iteration-1 content the destination
	// already holds: never-written zero blocks plus template overlap with
	// retained peer copies and clone-sibling disks. Ignored unless Dedup.
	DedupShare float64

	// Delta models negotiated delta encoding (core.Config.Delta) on the
	// first disk pre-copy iteration — the one whose blocks have stale
	// counterparts on the destination, an IM return trip's hot rewrites.
	// Every block dedup could not reference pays the signature round trip
	// (deltaSigPerBlock) and ships only its changed chunk fraction
	// (1 − DeltaMatchShare) as patch payload; when that is no cheaper than
	// the literal the model applies the engine's patch-vs-literal fallback,
	// literal plus the sunk signature cost. Later iterations are modelled
	// literal, as in the engine.
	Delta bool
	// DeltaMatchShare is the mean fraction of a diverged block's chunks the
	// destination's stale copy still matches — high for hot-block rewrites
	// (a head touched, the tail intact), zero for wholesale replacement or
	// a cold destination. Ignored unless Delta.
	DeltaMatchShare float64

	// Swarm models multi-source fetch (core.Config.SwarmPeers) on top of Dedup:
	// during iteration 1 an extra SwarmShare fraction of the content —
	// blocks the destination does not hold but peer machines do — arrives
	// over the peers' sidecar sessions at SwarmBytesPerSec aggregate, in
	// parallel with the source's stream. On the main channel those blocks
	// cost only advert and reference bytes, so the source's uplink carries
	// the literal remainder while the fleet carries the bulk. Ignored
	// unless Dedup.
	Swarm bool
	// SwarmShare is the iteration-1 content fraction swarm peers produce,
	// beyond the DedupShare the destination holds locally (the two sum to
	// at most 1).
	SwarmShare float64
	// SwarmBytesPerSec is the nominated peers' aggregate serve bandwidth —
	// sidecar links, separate from the migration path and from the source
	// host's disk, so an outage on the migration link does not stall them.
	SwarmBytesPerSec float64

	// OnEvent, when non-nil, receives the same typed progress events the
	// real engine emits (phase transitions, iteration ends, suspend,
	// resume, completion) on the simulated timeline — the simulator no
	// longer needs to be inferred from its cursor position.
	OnEvent core.EventFunc

	// OutageAt, when positive, severs the migration link once at that point
	// on the simulated timeline; the link stays down for OutageDuration
	// while the guest keeps running (and dirtying) at full disk speed.
	// The migration resumes the way the engine does — re-entering the
	// interrupted iteration and re-sending it — with the penalty recorded
	// in Report.Retries and Report.ResentBytes. Zero disables the fault.
	OutageAt       time.Duration
	OutageDuration time.Duration

	// Engine stop conditions, mirroring core.Config.
	MaxDiskIters           int
	DiskDirtyThresholdBlks int
	MaxMemIters            int
	MemDirtyThresholdPages int

	// FixedDowntime is the suspend/resume/device-reattach overhead that
	// exists regardless of transfer sizes.
	FixedDowntime time.Duration
	// PostCopyLatency is the control-path overhead of entering and running
	// the post-copy protocol (proc-file polling and per-pull round trips in
	// the paper's blkd).
	PostCopyLatency time.Duration

	// Step is the integration step for the contention model.
	Step time.Duration

	// DwellAfter is how long the guest keeps running on the destination
	// before an incremental migration back is measured (Table II).
	DwellAfter time.Duration
}

// Defaults returns the paper-testbed parameters for a given workload.
func Defaults(kind workload.Kind) Params {
	return Params{
		DiskMB:                 39070,
		MemMB:                  512,
		Workload:               kind,
		Seed:                   1,
		NetBytesPerSec:         49.1e6 * 1.048576, // 49.1 MiB/s in bytes
		DiskBytesPerSec:        76e6 * 1.048576,
		MaxDiskIters:           4,
		DiskDirtyThresholdBlks: 8,
		MaxMemIters:            30,
		MemDirtyThresholdPages: 64,
		FixedDowntime:          30 * time.Millisecond,
		PostCopyLatency:        330 * time.Millisecond,
		Step:                   250 * time.Millisecond,
		DwellAfter:             30 * time.Minute,
	}
}

// frameOverhead is the per-block wire overhead (transport header).
const frameOverhead = 13

// adaptiveExtentCap bounds the modelled slow-start growth, mirroring the
// engine-side clamp of extents to what one frame can carry.
const adaptiveExtentCap = 1024

// Result is the outcome of a simulated migration.
type Result struct {
	Report *metrics.Report
	// WorkloadSeries samples the guest's achieved I/O throughput (MB/s);
	// MigrationSeries samples the migration transfer rate. Together they
	// regenerate Figures 5 and 6.
	WorkloadSeries  metrics.Series
	MigrationSeries metrics.Series
	// MigStart/MigEnd bound the migration on the shared timeline.
	MigStart, MigEnd time.Duration
	// FreezeBitmapBytes is what the freeze bitmap cost on the wire.
	FreezeBitmapBytes int

	// carried state for an incremental migration back
	fresh *bitmap.Bitmap
	cur   *cursor
	p     Params
	now   time.Duration
}

// FreshBlocks returns how many blocks were dirtied on the destination since
// the resume — the IM working set.
func (r *Result) FreshBlocks() int { return r.fresh.Count() }

// sim holds the running state of one migration simulation.
type sim struct {
	p          Params
	numBlocks  int
	numPages   int
	now        time.Duration
	cur        *cursor
	dirty      *bitmap.Bitmap // tracked writes since last swap (source side)
	fresh      *bitmap.Bitmap // destination-side new writes (IM)
	trackDirty bool
	trackFresh bool

	memDirty float64 // expected dirty pages (analytic hot-set model)
	memProf  workload.MemoryProfile
	memPhase bool // memory pre-copy active: frames are single pages
	extent   int  // live extent coalescing limit (adaptive growth)

	outageArmed   bool          // OutageAt not yet reached
	linkDownUntil time.Duration // link dead until this instant
	faultFired    bool          // latched for the transfer loop to consume

	rep        *metrics.Report
	wSeries    metrics.Series
	mSeries    metrics.Series
	preCopying bool // disk contention active (migration reading the disk)
	postCopy   *postCopyState
}

type postCopyState struct {
	remaining *bitmap.Bitmap
	pushPos   int
	pulled    int
	stale     int
}

// RunTPM simulates a primary whole-disk TPM migration.
func RunTPM(p Params) *Result {
	return run(p, nil, nil, 0)
}

// RunIM simulates migrating the VM back using the fresh bitmap accumulated
// in a previous Result (after its dwell period). The guest is idle during
// the trip back — the paper's IM scenario migrates the environment home
// after the work session (maintenance done, telecommute over), so no
// workload dirties blocks mid-flight.
func (r *Result) RunIM() *Result {
	return run(r.p, r.fresh, nil, r.now)
}

func run(p Params, initial *bitmap.Bitmap, cur *cursor, start time.Duration) *Result {
	idle := initial != nil && cur == nil
	if p.Step <= 0 {
		p.Step = 250 * time.Millisecond
	}
	if p.MaxExtentBlocks < 1 {
		p.MaxExtentBlocks = 1
	}
	numBlocks := p.DiskMB << 20 / blockdev.BlockSize
	numPages := p.MemMB << 20 / 4096
	if cur == nil {
		g := workload.Generator(workload.New(p.Workload, numBlocks, p.Seed))
		if idle {
			g = idleGenerator{}
		}
		cur = newCursor(g)
	}
	s := &sim{
		p:         p,
		numBlocks: numBlocks,
		numPages:  numPages,
		now:       start,
		cur:       cur,
		dirty:     bitmap.New(numBlocks),
		fresh:     bitmap.New(numBlocks),
		memProf:   workload.Profile(p.Workload),
		rep: &metrics.Report{
			Scheme:      "TPM",
			Workload:    p.Workload.String(),
			DiskBytes:   int64(p.DiskMB) << 20,
			MemoryBytes: int64(p.MemMB) << 20,
		},
	}
	if initial != nil {
		s.rep.Scheme = "IM"
	}
	s.extent = p.MaxExtentBlocks
	s.outageArmed = p.OutageAt > 0
	s.wSeries = metrics.Series{Label: p.Workload.String() + " throughput", Unit: "MB/s"}
	s.mSeries = metrics.Series{Label: "migration transfer rate", Unit: "MB/s"}

	migStart := s.now
	s.trackDirty = true // blkback starts recording before the first copy

	// --- Disk pre-copy (§IV-A-1): iterative, bitmap-driven. ---
	s.emit(core.Event{Kind: core.EventPhaseStart, Phase: core.PhaseDiskPreCopy})
	s.preCopying = true
	toSend := initial
	if toSend == nil {
		toSend = bitmap.NewAllSet(numBlocks)
	}
	prevSent := toSend.Count()
	for iter := 1; ; iter++ {
		iterStart := s.now
		sentBlocks := toSend.Count()
		iterBytes := int64(sentBlocks) * blockdev.BlockSize
		if (p.Dedup || p.Delta) && iter == 1 {
			// Content-addressed iteration 1: every block pays the advert,
			// the present share travels as references, the rest literally —
			// or, with Delta negotiated, as signature-priced patches.
			share, swarmShare := 0.0, 0.0
			if p.Dedup {
				share = clamp01(p.DedupShare)
				if p.Swarm && p.SwarmBytesPerSec > 0 {
					swarmShare = clamp01(p.SwarmShare)
					if share+swarmShare > 1 {
						swarmShare = 1 - share
					}
				}
			}
			refsSwarm := int(float64(sentBlocks) * swarmShare)
			refs := int(float64(sentBlocks)*share) + refsSwarm
			wire, patched := iter1Wire(p, float64(sentBlocks), float64(refs), s.perBlockWire())
			if patched {
				s.rep.DeltaBlocks += sentBlocks - refs
			}
			if refsSwarm > 0 {
				// Swarm-produced blocks cross the peers' sidecar links in
				// parallel with the source stream; the iteration ends when
				// both flows drain.
				swarmWire := float64(refsSwarm) * swarmPerBlockWire
				s.transferWireParallel(wire, swarmWire)
			} else {
				s.transferWire(wire)
			}
			iterBytes = int64(wire)
			s.rep.DedupBlocks += refs
			s.rep.SwarmBlocks += refsSwarm
		} else {
			s.transferBlocks(int64(sentBlocks))
		}
		s.rep.DiskIterations = append(s.rep.DiskIterations, metrics.Iteration{
			Index: iter, Units: sentBlocks,
			Bytes:    iterBytes,
			Duration: s.now - iterStart, DirtyEnd: s.dirty.Count(),
		})
		s.emit(core.Event{
			Kind: core.EventIterationEnd, Phase: core.PhaseDiskPreCopy,
			Iteration: iter, Units: sentBlocks,
			Bytes: int64(sentBlocks) * blockdev.BlockSize, Dirty: s.dirty.Count(),
		})
		dirtyNow := s.dirty.Count()
		if dirtyNow <= p.DiskDirtyThresholdBlks || iter >= p.MaxDiskIters {
			break
		}
		if iter > 1 && dirtyNow >= prevSent {
			break // dirty rate caught up with transfer rate: stop proactively
		}
		prevSent = dirtyNow
		toSend = s.dirty.Clone()
		s.dirty.Reset()
	}
	s.preCopying = false

	// --- Memory pre-copy (Xen-style, analytic hot-set model). ---
	s.emit(core.Event{Kind: core.EventPhaseStart, Phase: core.PhaseMemPreCopy})
	s.memPreCopy()
	s.rep.PreCopyTime = s.now - migStart

	// --- Freeze-and-copy: final pages + CPU + block-bitmap. ---
	// The freeze bitmap is everything dirtied since the last iteration
	// swap; it crosses the link in the engine's own encoding, so its cost
	// follows the dirty set, not the disk size.
	carry := s.dirty.Clone()
	s.dirty.Reset()
	s.trackDirty = false
	finalPages := s.memDirty
	bitmapBytes := carry.EncodedLen() + frameOverhead
	freezeBytes := finalPages*4096 + float64(bitmapBytes) + 4096 /* CPU state */
	s.emit(core.Event{Kind: core.EventPhaseStart, Phase: core.PhaseFreezeCopy})
	s.emit(core.Event{Kind: core.EventSuspended, Phase: core.PhaseFreezeCopy})
	downtime := p.FixedDowntime + time.Duration(freezeBytes/p.NetBytesPerSec*float64(time.Second))
	s.advanceNoDisk(downtime) // guest frozen: its I/O halts; clock moves
	s.rep.Downtime = downtime
	s.rep.MemBytesMoved += int64(finalPages * 4096)

	// --- Post-copy: resume on destination; push everything in the bitmap
	// while guest reads pull (§IV-A-3). ---
	s.trackFresh = true
	s.emit(core.Event{Kind: core.EventPhaseStart, Phase: core.PhasePostCopy})
	s.emit(core.Event{Kind: core.EventResumed, Phase: core.PhasePostCopy})
	postStart := s.now
	carryInit := carry.Count()
	s.postCopy = &postCopyState{remaining: carry.Clone()}
	s.preCopying = true // pushes contend with the guest on the dest disk
	for s.postCopy.remaining.Any() {
		s.stepPostCopy()
	}
	s.preCopying = false
	s.now += p.PostCopyLatency
	s.rep.PostCopyTime = s.now - postStart
	s.rep.BlocksPushed = pushedCount(carryInit, s.postCopy)
	s.rep.BlocksPulled = s.postCopy.pulled
	s.rep.StalePushes = s.postCopy.stale
	s.postCopy = nil // synchronization complete; the dwell runs unmigrated
	s.rep.TotalTime = s.now - migStart
	migEnd := s.now
	s.emit(core.Event{Kind: core.EventCompleted, Phase: core.PhasePostCopy, Bytes: s.rep.MigratedBytes})

	// Amount of migrated data, using the paper's accounting: disk payloads
	// plus the bitmap (memory reported separately in MemBytesMoved).
	var diskBytes int64
	for _, it := range s.rep.DiskIterations {
		diskBytes += it.Bytes
	}
	pushed := int64(s.rep.BlocksPushed+s.rep.BlocksPulled) * blockdev.BlockSize
	s.rep.MigratedBytes = diskBytes + pushed + int64(bitmapBytes)

	// --- Dwell: the guest keeps running on the destination, feeding the
	// fresh bitmap that a later IM will carry back. ---
	dwellEnd := s.now + p.DwellAfter
	for s.now < dwellEnd {
		s.step(minDur(s.p.Step*40, dwellEnd-s.now))
	}

	return &Result{
		Report:          s.rep,
		WorkloadSeries:  s.wSeries,
		MigrationSeries: s.mSeries,
		MigStart:        migStart,
		MigEnd:          migEnd,
		fresh:           s.fresh,
		cur:             s.cur,
		p:               s.p,
		now:             s.now,

		FreezeBitmapBytes: bitmapBytes,
	}
}

func pushedCount(carryInit int, pc *postCopyState) int {
	// pushed = initial carry − pulled − superseded-by-writes
	n := carryInit - pc.pulled - pc.stale
	if n < 0 {
		n = 0
	}
	return n
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// emit forwards one progress event on the simulated timeline.
func (s *sim) emit(ev core.Event) {
	if s.p.OnEvent == nil {
		return
	}
	ev.Scheme, ev.Side, ev.At = s.rep.Scheme, "source", s.now
	s.p.OnEvent(ev)
}

// liveExtent returns the current coalescing limit: fixed, or the adaptive
// slow-start value.
func (s *sim) liveExtent() int {
	if s.extent < 1 {
		return 1
	}
	return s.extent
}

// growExtent advances the modelled slow start by one integration step.
func (s *sim) growExtent() {
	if !s.p.AdaptiveExtents || s.memPhase {
		return
	}
	if s.extent < 1 {
		s.extent = 1 // run() clamps MaxExtentBlocks, but never double from zero
	}
	if s.extent < adaptiveExtentCap {
		s.extent *= 2
		if s.extent > adaptiveExtentCap {
			s.extent = adaptiveExtentCap
		}
	}
}

// migFrameBytes returns the payload+header size of one frame in the current
// phase: disk phases coalesce up to the live extent limit per frame, but
// the engine never coalesces memory pages — each MsgMemPage is its own
// frame — so the stall amortization must not flatter the memory pre-copy.
func (s *sim) migFrameBytes() float64 {
	if s.memPhase {
		return 4096 + frameOverhead
	}
	return float64(blockdev.BlockSize*s.liveExtent() + frameOverhead)
}

// linkDown reports whether the modelled outage currently severs the link.
func (s *sim) linkDown() bool {
	return s.now < s.linkDownUntil
}

// consumeFault latches-and-clears the fired-fault flag; the transfer loops
// call it after each step to apply the engine's resume semantics (re-send
// the interrupted iteration).
func (s *sim) consumeFault() bool {
	if !s.faultFired {
		return false
	}
	s.faultFired = false
	s.rep.Retries++
	return true
}

// migRate returns the migration bandwidth before disk contention. When a
// per-frame stall is modelled, each frame of payload P costs P/net +
// FrameLatency seconds, so the effective rate rises with extent coalescing
// (bigger P). A severed link moves nothing.
func (s *sim) migRate() float64 {
	if s.linkDown() {
		return 0
	}
	r := s.p.NetBytesPerSec
	if s.p.FrameLatency > 0 {
		frameBytes := s.migFrameBytes()
		perByte := 1/r + s.p.FrameLatency.Seconds()/frameBytes
		r = 1 / perByte
	}
	if s.p.RateLimit > 0 && s.p.RateLimit < r {
		r = s.p.RateLimit
	}
	return r
}

// perBlockWire returns the wire bytes one block costs with the live extent
// coalescing: the frame header is shared by up to liveExtent blocks.
func (s *sim) perBlockWire() float64 {
	return blockdev.BlockSize + float64(frameOverhead)/float64(s.liveExtent())
}

// iter1Wire prices iteration 1 of a content-addressed pre-copy over blocks
// blocks, refs of which the destination can already produce: with Dedup
// negotiated every block pays the advert and the refs travel as 16-byte
// references; the rest travel literally at perLiteral bytes each — or, with
// Delta negotiated, as signature-priced patches carrying their changed chunk
// fraction. A patch no smaller than the literal falls back to it, as the
// engine does, with the signature round trip already sunk; patched reports
// whether the literals travelled as patches.
func iter1Wire(p Params, blocks, refs, perLiteral float64) (wire float64, patched bool) {
	lits := blocks - refs
	litWire := lits * perLiteral
	if p.Delta && lits > 0 {
		perPatch := deltaSigPerBlock + deltaPatchPerBlockOverhead +
			(1-clamp01(p.DeltaMatchShare))*blockdev.BlockSize
		if perPatch >= perLiteral+deltaSigPerBlock {
			perPatch = perLiteral + deltaSigPerBlock
		} else {
			patched = true
		}
		litWire = lits * perPatch
	}
	wire = litWire + refs*dedupRefPerBlock
	if p.Dedup {
		wire += blocks * dedupAdvertPerBlock
	}
	return wire, patched
}

// step advances one integration step of dt, returning the migration bytes
// credited. Guest accesses consumed in the step update the dirty/fresh
// bitmaps; contention scales both parties proportionally into the disk
// capacity (when the migration is touching the disk).
func (s *sim) step(dt time.Duration) float64 {
	demand := float64(s.cur.peekDemandBytes(dt)) / dt.Seconds()
	mig := 0.0
	if s.preCopying || s.postCopy != nil {
		mig = s.migRate()
	}
	wEff, mEff := demand, mig
	if s.preCopying && demand+mig > s.p.DiskBytesPerSec {
		scale := s.p.DiskBytesPerSec / (demand + mig)
		wEff, mEff = demand*scale, mig*scale
	}
	slow := 1.0
	if demand > 0 {
		slow = wEff / demand
	}
	s.cur.advance(time.Duration(float64(dt)*slow), s.applyAccess)
	s.advanceMemModel(dt)
	s.now += dt
	if s.outageArmed && s.now >= s.p.OutageAt {
		s.outageArmed = false
		s.linkDownUntil = s.now + s.p.OutageDuration
		s.faultFired = true
	}
	s.wSeries.Add(s.now, wEff/1e6)
	s.mSeries.Add(s.now, mEff/1e6)
	if mig > 0 {
		s.growExtent()
	}
	return mEff * dt.Seconds()
}

// advanceNoDisk moves time forward with the guest frozen (downtime window).
func (s *sim) advanceNoDisk(dt time.Duration) {
	s.now += dt
	s.wSeries.Add(s.now, 0)
}

// applyAccess folds one guest access into the tracking bitmaps.
func (s *sim) applyAccess(a workload.Access) {
	if a.Op == blockdev.Write {
		if s.trackDirty {
			s.dirty.SetRange(a.Block, a.Block+a.Count)
		}
		if s.trackFresh {
			s.fresh.SetRange(a.Block, a.Block+a.Count)
		}
		if s.postCopy != nil {
			for n := a.Block; n < a.Block+a.Count; n++ {
				if s.postCopy.remaining.Test(n) {
					s.postCopy.remaining.Clear(n) // local write supersedes push
					s.postCopy.stale++
				}
			}
		}
		return
	}
	// Read during post-copy: a dirty block is pulled immediately.
	if s.postCopy != nil {
		for n := a.Block; n < a.Block+a.Count; n++ {
			if s.postCopy.remaining.Test(n) {
				s.postCopy.remaining.Clear(n)
				s.postCopy.pulled++
			}
		}
	}
}

// inflightWindow is the data assumed lost in flight when the link is cut:
// everything already confirmed by the destination survives (its transfer
// cursor rides the resume ack), so the resume penalty is one transport
// window, not the interrupted iteration.
const inflightWindow = 256 << 10

// Dedup wire-cost constants: a 16-byte fingerprint per advertised block
// (plus the want bit and amortized frame headers) and a 16-byte fingerprint
// per referenced block — mirroring the engine's MsgHashAdvert/MsgBlockRef
// encoding in docs/WIRE.md §10.
const (
	dedupAdvertPerBlock = 17.0
	dedupRefPerBlock    = 16.0
)

// Delta wire-cost constants, mirroring WIRE.md §12 for a 4096-byte block
// at the default 128-byte chunk: the signature round trip is the 13-byte
// request frame plus the reply — 8-byte signature header, 32 records of
// 12 bytes, 13-byte frame — and a patch's fixed cost is its 8-byte header,
// 16-byte verify trailer, a few merged COPY/LITERAL op headers, and the
// 13-byte frame. The changed-chunk payload comes on top of the overhead.
const (
	deltaSigPerBlock           = 418.0
	deltaPatchPerBlockOverhead = 61.0
)

// swarmPerBlockWire is the sidecar cost of one swarm-fetched block: the
// block content plus the MsgSwarmFetch fingerprint (16 B), its hit-mask
// bit, and the amortized frame headers — mirroring WIRE.md §11.
const swarmPerBlockWire = blockdev.BlockSize + dedupAdvertPerBlock

// clamp01 bounds a fraction to [0, 1].
func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// transferBlocks advances time until `blocks` blocks have crossed the wire.
// If the modelled outage fires mid-iteration, the link stalls for the
// outage window and the in-flight data is re-sent — the engine's
// cursor-exact resume semantics.
func (s *sim) transferBlocks(blocks int64) {
	s.transferWire(float64(blocks) * s.perBlockWire())
}

// transferWire advances time until `total` wire bytes have crossed.
func (s *sim) transferWire(total float64) {
	remaining := total
	for remaining > 0 {
		remaining -= s.step(s.p.Step)
		if s.consumeFault() && remaining > 0 {
			resend := math.Min(total-remaining, inflightWindow)
			if resend > 0 {
				s.rep.ResentBytes += int64(resend)
				remaining += resend
			}
		}
	}
}

// transferWireParallel advances time until both the main-channel bytes and
// the swarm sidecar bytes have crossed. The flows are independent links:
// the source stream rides the contended migration path (outages and all),
// the swarm total drains at the peers' aggregate rate, and the iteration —
// like the real destination, which answers the next advert only when the
// current extent settles — finishes with the slower of the two.
func (s *sim) transferWireParallel(total, swarmTotal float64) {
	remaining, swarmRemaining := total, swarmTotal
	for remaining > 0 || swarmRemaining > 0 {
		credit := s.step(s.p.Step)
		if remaining > 0 {
			remaining -= credit
			if s.consumeFault() && remaining > 0 {
				resend := math.Min(total-remaining, inflightWindow)
				if resend > 0 {
					s.rep.ResentBytes += int64(resend)
					remaining += resend
				}
			}
		} else {
			s.consumeFault() // an outage after the source drained costs nothing
		}
		swarmRemaining -= s.p.SwarmBytesPerSec * s.p.Step.Seconds()
	}
}

// stepPostCopy advances one step while the source pushes remaining blocks in
// ascending order (the guest's reads/writes meanwhile clear bits through
// applyAccess).
func (s *sim) stepPostCopy() {
	credit := s.step(s.p.Step)
	// An outage during post-copy just stalls the push; the remaining bitmap
	// is the source's durable view, so resume loses at most one step.
	s.consumeFault()
	if s.linkDown() {
		return
	}
	pushBlocks := int(credit / s.perBlockWire())
	if pushBlocks < 1 {
		pushBlocks = 1 // guarantee progress even under an extreme cap
	}
	pc := s.postCopy
	for i := 0; i < pushBlocks; i++ {
		n := pc.remaining.NextSet(pc.pushPos)
		if n < 0 {
			// wrap: guest writes may have cleared bits behind the cursor
			n = pc.remaining.NextSet(0)
			if n < 0 {
				return
			}
		}
		pc.remaining.Clear(n)
		pc.pushPos = n + 1
	}
}

// advanceMemModel integrates the hot-set dirty-page model: pages are
// re-dirtied at rate r across a hot set of H pages, so the expected dirty
// count approaches H exponentially.
func (s *sim) advanceMemModel(dt time.Duration) {
	if !s.trackDirty {
		return
	}
	h := float64(s.memProf.HotPages)
	r := s.memProf.DirtyRate
	if h <= 0 || r <= 0 {
		return
	}
	s.memDirty = h - (h-s.memDirty)*expNeg(r*dt.Seconds()/h)
}

// memPreCopy mirrors the engine's iterative memory pre-copy on the analytic
// model: iteration 1 sends every page; iteration k sends the pages dirtied
// during iteration k-1.
func (s *sim) memPreCopy() {
	s.memPhase = true
	defer func() { s.memPhase = false }()
	rate := s.migRate()
	toSend := float64(s.numPages)
	s.memDirty = 0
	prev := toSend
	for iter := 1; ; iter++ {
		dur := toSend * 4096 / rate
		iterStart := s.now
		// advance the world while pages stream (no disk contention:
		// memory moves over the NIC only)
		elapsed := time.Duration(0)
		total := time.Duration(dur * float64(time.Second))
		for elapsed < total {
			step := minDur(s.p.Step, total-elapsed)
			s.step(step)
			if s.consumeFault() {
				// Cursor-exact resume: only the in-flight window re-sends
				// once the link returns.
				resendSec := inflightWindow / rate
				if rewind := time.Duration(resendSec * float64(time.Second)); rewind < elapsed {
					elapsed -= rewind
				} else {
					elapsed = 0
				}
				s.rep.ResentBytes += inflightWindow
				continue
			}
			if s.linkDown() {
				continue // time passes, no pages move
			}
			elapsed += step
		}
		s.rep.MemBytesMoved += int64(toSend * 4096)
		dirtyNow := s.memDirty
		s.rep.MemIterations = append(s.rep.MemIterations, metrics.Iteration{
			Index: iter, Units: int(toSend), Bytes: int64(toSend * 4096),
			Duration: s.now - iterStart, DirtyEnd: int(dirtyNow),
		})
		if int(dirtyNow) <= s.p.MemDirtyThresholdPages || iter >= s.p.MaxMemIters {
			return
		}
		if iter > 1 && dirtyNow >= prev {
			return // writable working set saturated
		}
		prev = dirtyNow
		toSend = dirtyNow
		s.memDirty = 0
	}
}

// expNeg computes e^-x for x ≥ 0.
func expNeg(x float64) float64 {
	if x < 0 {
		panic(fmt.Sprintf("sim: expNeg(%v)", x))
	}
	return math.Exp(-x)
}
