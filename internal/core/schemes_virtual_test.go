//go:build goexperiment.synctest

package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/workload"
)

// The paper's case for the block-bitmap is comparative (§II, §IV-A-2, §IV
// phase 3): forwarding every write re-sends each rewrite and blocks the
// guest's I/O while the deltas replay, freeze-and-copy's downtime is its
// whole transfer, and pure on-demand fetching keeps a residual dependency on
// the source. schemeRows runs the four schemes in the same world under the
// same guest, so each claim is an engine count, not a model's.
//
// The guest writes on the sending goroutine (pacedGuest); a delta migration's
// forwarder then sends MsgDelta from inside Paced.Send, on the same metered
// conn. No lock is held across that nested send but Paced's, which a
// MsgDelta (no carried units) does not take again, and the shadow's, which
// only the guest takes while the migration runs.

// onDemandHorizon is when the on-demand destination cuts its dependency,
// counted from the start of its run; ResidualDirty is what it has not
// localized by then.
const onDemandHorizon = 200 * time.Millisecond

// schemeMarkers is what delta forwarding moves beyond freeze-and-copy's one
// copy and the forwarded MsgDelta frames, exactly: the disk pass's
// MsgIterStart and MsgIterEnd, and a second memory iteration's two markers.
var schemeMarkers = 4 * transport.Message{Type: transport.MsgIterStart}.FrameSize()

// onDemandReads are the blocks the on-demand destination reads after resume.
var onDemandReads = []int{0, 3, 9, 600, 601, 1500}

// writeLog counts a guest's block writes and the distinct blocks they hit.
type writeLog struct {
	writes int
	seen   map[int]bool
}

// rewriteShare is the share of the writes that hit a block already written.
func (l *writeLog) rewriteShare() float64 {
	if l.writes == 0 {
		return 0
	}
	return float64(l.writes-len(l.seen)) / float64(l.writes)
}

// genWrites is a pacedGuest's next: each round is gen's next write access,
// logged in log.
func genWrites(gen workload.Generator, log *writeLog) func(int) (int, int) {
	return func(int) (int, int) {
		a := gen.Next()
		for a.Op != blockdev.Write {
			a = gen.Next()
		}
		for n := a.Block; n < a.Block+a.Count; n++ {
			log.writes++
			log.seen[n] = true
		}
		return a.Block, a.Count
	}
}

// The schemes: each migrates w and returns the source's report and the
// destination's.

func tpmScheme(w *world, src, dst Config) (*metrics.Report, *metrics.Report) {
	rep, res := w.tpm(src, dst, nil)
	return rep, res.Report
}

func freezeAndCopyScheme(w *world, src, dst Config) (*metrics.Report, *metrics.Report) {
	var rep *metrics.Report
	var res *DestResult
	w.migrate(
		func() (err error) { rep, err = MigrateFreezeAndCopySource(src, w.src, w.connSrc); return err },
		func() (err error) { res, err = MigrateFreezeAndCopyDest(dst, w.dst, w.connDst); return err })
	return rep, res.Report
}

// onDemandScheme reads onDemandReads through the destination's gate after
// resume and cuts the dependency at onDemandHorizon.
func onDemandScheme(w *world, src, dst Config) (*metrics.Report, *metrics.Report) {
	w.partial = true
	read, release := readAfterResume(w, &src, &dst, onDemandReads...), make(chan struct{})
	go func() {
		time.Sleep(onDemandHorizon)
		<-read
		close(release)
	}()
	var rep *metrics.Report
	var res *DestResult
	w.migrate(
		func() (err error) { rep, err = MigrateOnDemandSource(src, w.src, w.connSrc); return err },
		func() (err error) { res, err = MigrateOnDemandDest(dst, w.dst, w.connDst, release); return err })
	return rep, res.Report
}

// deltaScheme routes the guest's writes through a DeltaForwarder.
func deltaScheme(w *world, src, dst Config) (*metrics.Report, *metrics.Report) {
	fwd := NewDeltaForwarder(w.src.Backend, w.connSrc)
	w.router = NewRouter(fwd.Submit)
	var rep *metrics.Report
	var res *DestResult
	w.migrate(
		func() (err error) { rep, err = MigrateDeltaSource(src, w.src, w.connSrc, fwd); return err },
		func() (err error) { res, err = MigrateDeltaDest(dst, w.dst, w.connDst); return err })
	return rep, res.Report
}

// schemeRow is one scheme's result under one guest.
type schemeRow struct {
	rep, dstRep             *metrics.Report
	deltaFrames, deltaBytes int
	log                     writeLog
}

// schemeRows runs TPM, freeze-and-copy, on-demand and delta forwarding at the
// default config in worlds over taps' modelled link whose destination device
// is blockdev.Slow (so the delta replay takes time), each under a paced guest
// writing what workload.New(kind) writes, writes the rows to b and holds them
// to the paper's orderings.
func schemeRows(t *testing.T, b *strings.Builder, taps *tappedLink, kind workload.Kind) {
	schemes := []struct {
		name string
		run  func(w *world, src, dst Config) (rep, dstRep *metrics.Report)
	}{{"tpm", tpmScheme}, {"freeze-and-copy", freezeAndCopyScheme}, {"on-demand", onDemandScheme}, {"delta-forward", deltaScheme}}
	rows := map[string]schemeRow{}
	for _, s := range schemes {
		row := virtualPair(t, worldSpec{link: taps.link}, func(w *world) (row schemeRow) {
			w.dst.Backend = blkback.NewBackend(blockdev.Slow{Device: w.dstDisk}, testDomain)
			row.log.seen = map[int]bool{}
			src := pacedGuest(t, w, Config{}, genWrites(workload.New(kind, testBlocks, 1), &row.log))
			row.rep, row.dstRep = s.run(w, src, Config{})
			return row
		})
		row.deltaFrames, row.deltaBytes = taps.tally(transport.MsgDelta)
		rows[s.name] = row
		b.WriteString(virtualRow("schemes "+kind.String(), row.rep))
		fmt.Fprintf(b, "  scheme: stale=%d io-blocked=%v residual=%d delta frames/bytes=%d/%d writes/distinct=%d/%d rewrite-share=%.6f\n",
			row.dstRep.StalePushes, row.dstRep.IOBlockedTime, row.dstRep.ResidualDirty, row.deltaFrames, row.deltaBytes,
			row.log.writes, len(row.log.seen), row.log.rewriteShare())
	}
	tpm, fc, od, delta := rows["tpm"], rows["freeze-and-copy"], rows["on-demand"], rows["delta-forward"]
	if fc.rep.Downtime*10 < fc.rep.TotalTime*9 || fc.rep.Downtime <= tpm.rep.Downtime {
		t.Errorf("%s: freeze-and-copy downtime %v of %v total, TPM's %v: want ≥ 0.9 of its total and above TPM's",
			kind, fc.rep.Downtime, fc.rep.TotalTime, tpm.rep.Downtime)
	}
	if od.dstRep.ResidualDirty == 0 || tpm.dstRep.ResidualDirty != 0 {
		t.Errorf("%s: residual dependency on-demand %d, TPM %d: want above 0 and 0",
			kind, od.dstRep.ResidualDirty, tpm.dstRep.ResidualDirty)
	}
	if stale := delta.dstRep.StalePushes; stale == 0 || stale != delta.log.writes-len(delta.log.seen) {
		t.Errorf("%s: %d redundant deltas of %d writes to %d blocks: want the rewrites, above 0",
			kind, stale, delta.log.writes, len(delta.log.seen))
	}
	if delta.deltaFrames != delta.log.writes || delta.dstRep.IOBlockedTime <= 0 {
		t.Errorf("%s: %d delta frames for %d writes, I/O blocked %v: want one frame a write and a replay that takes time",
			kind, delta.deltaFrames, delta.log.writes, delta.dstRep.IOBlockedTime)
	}
	if extra := int(delta.rep.MigratedBytes-fc.rep.MigratedBytes) - delta.deltaBytes; extra != schemeMarkers {
		t.Errorf("%s: delta-forward moved %d B more than freeze-and-copy with %d B of deltas: %d B apart, want the %d B of its markers",
			kind, delta.rep.MigratedBytes-fc.rep.MigratedBytes, delta.deltaBytes, extra, schemeMarkers)
	}
}
