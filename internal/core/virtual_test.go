//go:build goexperiment.synctest

package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"bbmig/internal/blockdev"
	"bbmig/internal/dedup"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// The engine in virtual time. Inside a testing/synctest bubble time.Now,
// time.Sleep and timers are the bubble's, and time moves only when every
// goroutine in it is blocked, so an unmodified migration over in-memory pipes
// and a modelled link repeats to the nanosecond and the byte, in a few
// milliseconds of wall time. Build with GOEXPERIMENT=synctest (go1.24).

// The modelled link of every virtual run: GbE's rate each way and a 50 µs
// per-frame stall.
const (
	virtualStall = 50 * time.Microsecond
	virtualRate  = 125e6
)

// tappedLink makes the modelled link of each world and logs the frames each
// side sends, keeping the logs of the newest world: the link of the
// migration a row reports. A striped world is one link too: each of its
// streams gets its own modelled link at its share of virtualRate, so a row
// measures how striping overlaps the per-frame stall, not more NICs.
type tappedLink struct {
	streams  int // per world; 0 is one
	mu       sync.Mutex
	made     int           // streams linked for the newest world
	src, dst []tappedFrame // the newest world's frames per side, in send order across streams
}

// tappedFrame is one frame a side of a tappedLink sent, on which stream.
type tappedFrame struct {
	typ          transport.MsgType
	size, stream int
}

// linkTap logs the frames one stream of one side sends.
type linkTap struct {
	transport.Conn
	l      *tappedLink
	log    *[]tappedFrame
	stream int
}

func (t linkTap) Send(m transport.Message) error {
	t.l.mu.Lock()
	*t.log = append(*t.log, tappedFrame{m.Type, m.FrameSize(), t.stream})
	t.l.mu.Unlock()
	return t.Conn.Send(m)
}

// link is a worldSpec link: the modelled link of one stream, both ways.
func (l *tappedLink) link(src, dst transport.Conn) (transport.Conn, transport.Conn) {
	streams := max(l.streams, 1)
	rate := int64(virtualRate) / int64(streams)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.made == streams {
		l.made, l.src, l.dst = 0, nil, nil
	}
	l.made++
	return linkTap{transport.NewWAN(src, virtualStall, rate), l, &l.src, l.made - 1},
		linkTap{transport.NewWAN(dst, virtualStall, rate), l, &l.dst, l.made - 1}
}

// freezeRow attributes the freeze window of the newest link to its parts, as
// frames/wire bytes: the final memory pages, the CPU state, the bitmap, and
// the control frames — the source's SUSPEND and RESUME, the stripe barriers
// of a striped link, and the destination's RESUMED, which ends the downtime.
func (l *tappedLink) freezeRow() string {
	const pages, cpu, bm, control = 0, 1, 2, 3
	var frames, bytes [4]int
	add := func(part int, fr tappedFrame) { frames[part]++; bytes[part] += fr.size }
	l.mu.Lock()
	defer l.mu.Unlock()
	open := false
	for _, fr := range l.src {
		open = open || fr.typ == transport.MsgSuspend
		if !open {
			continue
		}
		switch fr.typ {
		case transport.MsgMemPage, transport.MsgMemPageDelta, transport.MsgMemPages:
			add(pages, fr)
		case transport.MsgCPUState:
			add(cpu, fr)
		case transport.MsgBitmap:
			add(bm, fr)
		default:
			add(control, fr)
		}
		if fr.typ == transport.MsgResume {
			break
		}
	}
	for _, fr := range l.dst {
		if fr.typ == transport.MsgResumed {
			add(control, fr)
		}
	}
	return fmt.Sprintf("  freeze frames/bytes: pages=%d/%d cpu=%d/%d bitmap=%d/%d control=%d/%d\n",
		frames[pages], bytes[pages], frames[cpu], bytes[cpu], frames[bm], bytes[bm], frames[control], bytes[control])
}

// streamRow is the frames/wire bytes the newest link's source sent on each
// stream, and of those its stripe barriers.
func (l *tappedLink) streamRow() string {
	streams := max(l.streams, 1)
	frames, bytes, barriers := make([]int, streams), make([]int, streams), 0
	l.mu.Lock()
	for _, fr := range l.src {
		frames[fr.stream]++
		bytes[fr.stream] += fr.size
		if fr.typ == transport.MsgStripeBarrier {
			barriers++
		}
	}
	l.mu.Unlock()
	var b strings.Builder
	b.WriteString("  stream frames/bytes:")
	for i := range frames {
		fmt.Fprintf(&b, " %d=%d/%d", i, frames[i], bytes[i])
	}
	fmt.Fprintf(&b, " barriers=%d\n", barriers)
	return b.String()
}

// virtualPair is runPair in a synctest bubble: it builds a world from sp
// over transport.NewPipe and the modelled link sp.link puts on each way —
// inside the bubble, which the link's goroutines and the pipes must belong
// to — and hands it to run, whose migrations go through the world's runner
// as usual. The result leaves the bubble through a channel once every
// goroutine in it has exited.
func virtualPair[R any](t *testing.T, sp worldSpec, run func(w *world) R) R {
	t.Helper()
	out := make(chan R, 1)
	synctest.Run(func() { out <- run(newWorld(t, sp)) })
	return <-out
}

// virtualRow is the golden record of one migration: its report's times,
// iterations and wire bytes, exactly.
func virtualRow(name string, rep *metrics.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s time=%v downtime=%v wire=%d\n", name, rep.Scheme, rep.TotalTime, rep.Downtime, rep.MigratedBytes)
	for _, it := range rep.DiskIterations {
		fmt.Fprintf(&b, "  disk %d: units=%d bytes=%d time=%v\n", it.Index, it.Units, it.Bytes, it.Duration)
	}
	for _, it := range rep.MemIterations {
		fmt.Fprintf(&b, "  mem %d: units=%d bytes=%d time=%v\n", it.Index, it.Units, it.Bytes, it.Duration)
	}
	return b.String()
}

// pacedGuest writes w's disk as the source sends: one round per eight units
// on the wire, on the sending goroutine, so the writes land at the same
// points of the transfer in every run. Round i writes the count blocks from
// first that next(i) names. It stops at the freeze.
func pacedGuest(t *testing.T, w *world, src Config, next func(i int) (first, count int)) Config {
	block := make([]byte, blockdev.BlockSize) // the shadow fills it
	guest := &workload.Paced{Conn: w.connSrc, Every: 8, Round: func(i int) {
		first, count := next(i)
		for n := first; n < first+count; n++ {
			if err := w.shadow.Submit(blockdev.Request{Op: blockdev.Write, Domain: testDomain, Block: n, Data: block}); err != nil {
				t.Errorf("guest write: %v", err)
			}
		}
	}}
	w.connSrc = guest
	src.OnFreeze = func() {
		guest.Stop()
		w.router.Freeze()
	}
	return src
}

// hotSet is the paced-guest-tpm rows' writes: one block a round of a
// 48-block hot set spread over the disk.
func hotSet(i int) (int, int) { return (i * 7 % 48) * 41, 1 }

// hotPages is the hot-page guest's memory: bbench's MemDelta geometry.
const hotPages = 2048

// hotPagesGuest counts in the first word of each page of a 512-page hot set
// of w's memory as the source sends: 32 page writes per eight units on the
// wire, on the sending goroutine, so memory pre-copy never catches up and
// the freeze carries the hot set as page deltas (bbench's MemDelta/word-touch
// guest). It stops at the freeze.
func hotPagesGuest(t *testing.T, w *world, src Config) Config {
	const hot, perRound = 512, 32
	mem, page := w.src.VM.Memory(), make([]byte, vm.PageSize)
	guest := &workload.Paced{Conn: w.connSrc, Every: 8, Round: func(r int) {
		for k := perRound * r; k < perRound*(r+1); k++ {
			p := k % hot
			if err := mem.ReadPage(p, page); err != nil {
				t.Errorf("guest page read: %v", err)
			}
			binary.LittleEndian.PutUint64(page, uint64(k)+1)
			if err := mem.WritePage(p, page); err != nil {
				t.Errorf("guest page write: %v", err)
			}
		}
	}}
	w.connSrc = guest
	src.OnFreeze = func() {
		guest.Stop()
		w.router.Freeze()
	}
	return src
}

// imBack migrates w there and back: a TPM, then the guest rewrites every
// 17th block on the destination, behind the post-copy gate, and IM carries
// those writes home over a fresh modelled link made by link.
func imBack(t *testing.T, w *world, cfg Config, link func(src, dst transport.Conn) (transport.Conn, transport.Conn)) *metrics.Report {
	_, res := w.tpm(cfg, cfg, nil)
	block := make([]byte, blockdev.BlockSize)
	for n := 0; n < testBlocks; n += 17 {
		workload.FillBlock(block, n, 9)
		if err := w.shadow.Submit(blockdev.Request{Op: blockdev.Write, Domain: testDomain, Block: n, Data: block}); err != nil {
			t.Fatal(err)
		}
	}
	rep, _ := w.reverse(worldSpec{link: link}).tpm(cfg, cfg, res.Gate.FreshBitmap())
	return rep
}

// deltaBack migrates w there and back with delta negotiated on the way home:
// a TPM, then a hot-head rewrite of every fourth block on the destination
// (TestDeltaEquivalenceIM's shape), and IM at 16-block extents carries the
// rewrites home as patches over a fresh modelled link made by link.
func deltaBack(t *testing.T, w *world, link func(src, dst transport.Conn) (transport.Conn, transport.Conn)) *metrics.Report {
	w.tpm(Config{}, Config{}, nil)
	divergent := make([]int, 0, testBlocks/4)
	for n := 0; n < testBlocks; n += 4 {
		divergent = append(divergent, n)
	}
	fresh := hotRewrite(t, w.dstDisk, divergent, blockdev.BlockSize/16, 7)
	cfg := Config{Delta: true, MaxExtentBlocks: 16}
	rep, _ := w.reverse(worldSpec{link: link}).tpm(cfg, cfg, fresh)
	return rep
}

// dedupClone migrates a template clone (dedup_test.go's template over 512
// contents) to a destination whose index was warmed from a sibling clone of
// the same template: benchmark/'s clone-dedup shape, idle, at 64-block
// extents.
func dedupClone(w *world) *metrics.Report {
	sibling := blockdev.NewMemDisk(testBlocks, blockdev.BlockSize)
	fill, buf := template(512), make([]byte, blockdev.BlockSize)
	for n := 0; n < testBlocks; n++ {
		if fill(buf, n) {
			if err := sibling.WriteBlock(n, buf); err != nil {
				w.t.Fatal(err)
			}
		}
	}
	idx := dedup.NewIndex(blockdev.BlockSize)
	if err := idx.RegisterSource("disk/sibling", sibling); err != nil {
		w.t.Fatal(err)
	}
	if _, err := idx.ScanSource("disk/sibling"); err != nil {
		w.t.Fatal(err)
	}
	cfg := Config{Dedup: true, MaxExtentBlocks: 64}
	dst := cfg
	dst.DedupIndex, dst.DedupName = idx, "disk/clone"
	rep, _ := w.tpm(cfg, dst, nil)
	return rep
}

// tally counts the newest link's frames of type typ, both ways, and their
// wire bytes.
func (l *tappedLink) tally(typ transport.MsgType) (frames, bytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, side := range [][]tappedFrame{l.src, l.dst} {
		for _, fr := range side {
			if fr.typ == typ {
				frames++
				bytes += fr.size
			}
		}
	}
	return frames, bytes
}

// countRow attributes the newest link's frames of the given types, both
// ways, as frames/wire bytes under their labels.
func (l *tappedLink) countRow(title string, labels []string, types ...transport.MsgType) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %s frames/bytes:", title)
	for i, label := range labels {
		frames, bytes := l.tally(types[i])
		fmt.Fprintf(&b, " %s=%d/%d", label, frames, bytes)
	}
	b.WriteString("\n")
	return b.String()
}

// TestVirtualGolden records {idle TPM, TPM under a paced guest, IM back, TPM
// under the hot-page guest} × MaxExtentBlocks {1, 64}, the delta return trip (deltaBack) and a dedup'd
// clone (dedupClone), on the modelled link in testdata/virtual.golden:
// migration time, downtime, per-iteration units, bytes and time, wire bytes,
// and the freeze window's frames and bytes by part, to the nanosecond and
// the byte. A diff is a change to what the engine costs on a link;
// -update-golden rewrites it.
func TestVirtualGolden(t *testing.T) {
	var b strings.Builder
	fmt.Fprintf(&b, "# modelled link: %v stall + %d B/s each way\n", virtualStall, int64(virtualRate))
	idle := map[int]time.Duration{}
	var taps tappedLink
	for _, extent := range []int{1, 64} {
		cfg := Config{MaxExtentBlocks: extent}
		rows := []struct {
			name  string
			pages int
			run   func(w *world) *metrics.Report
		}{
			{"idle-tpm", 0, func(w *world) *metrics.Report {
				rep, _ := w.tpm(cfg, cfg, nil)
				return rep
			}},
			{"paced-guest-tpm", 0, func(w *world) *metrics.Report {
				rep, _ := w.tpm(pacedGuest(t, w, cfg, hotSet), cfg, nil)
				return rep
			}},
			{"im-back", 0, func(w *world) *metrics.Report { return imBack(t, w, cfg, taps.link) }},
			{"hot-pages-tpm", hotPages, func(w *world) *metrics.Report {
				rep, _ := w.tpm(hotPagesGuest(t, w, cfg), cfg, nil)
				return rep
			}},
		}
		for _, row := range rows {
			rep := virtualPair(t, worldSpec{pages: row.pages, link: taps.link}, row.run)
			if rep.Downtime <= 0 {
				t.Errorf("%s at extent %d: downtime %v, want the freeze's frames charged", row.name, extent, rep.Downtime)
			}
			if row.name == "idle-tpm" {
				idle[extent] = rep.TotalTime
			}
			b.WriteString(virtualRow(fmt.Sprintf("%s extent=%d", row.name, extent), rep))
			b.WriteString(taps.freezeRow())
		}
	}
	rep := virtualPair(t, worldSpec{link: taps.link}, func(w *world) *metrics.Report { return deltaBack(t, w, taps.link) })
	b.WriteString(virtualRow("delta-back extent=16", rep))
	b.WriteString(taps.freezeRow())
	b.WriteString(taps.countRow("delta", []string{"sig", "patch"}, transport.MsgDeltaSig, transport.MsgDeltaPatch))
	rep = virtualPair(t, worldSpec{fill: template(512), link: taps.link}, dedupClone)
	b.WriteString(virtualRow("dedup-clone extent=64", rep))
	b.WriteString(taps.freezeRow())
	b.WriteString(taps.countRow("dedup", []string{"advert", "want", "ref"}, transport.MsgHashAdvert, transport.MsgHashWant, transport.MsgBlockRef))
	striped := map[int]time.Duration{}
	stripes := tappedLink{streams: 4}
	for _, extent := range []int{1, 64} {
		cfg := Config{Streams: 4, Workers: 4, MaxExtentBlocks: extent}
		rep := virtualPair(t, worldSpec{streams: 4, link: stripes.link}, func(w *world) *metrics.Report {
			rep, _ := w.tpm(cfg, cfg, nil)
			return rep
		})
		striped[extent] = rep.TotalTime
		b.WriteString(virtualRow(fmt.Sprintf("striped4 extent=%d", extent), rep))
		b.WriteString(stripes.freezeRow())
		b.WriteString(stripes.streamRow())
	}
	// The modelled-link claims: extents beat per-block frames, and four
	// streams sharing the link hide the per-frame stall that per-block frames
	// pay and keep up with extents, which pay it rarely.
	fmt.Fprintf(&b, "idle per-block/extents time ratio: %.6f\n", float64(idle[1])/float64(idle[64]))
	fmt.Fprintf(&b, "idle one-stream/striped4 time ratio: extent=1 %.6f extent=64 %.6f\n",
		float64(idle[1])/float64(striped[1]), float64(idle[64])/float64(striped[64]))
	if idle[64]*2 >= idle[1] {
		t.Errorf("64-block extents (%v) did not clearly beat per-block frames (%v) on the modelled link", idle[64], idle[1])
	}
	if striped[1]*3 > idle[1]*2 {
		t.Errorf("four streams at extent 1 (%v) did not beat one stream (%v) by 1.5x on the modelled link", striped[1], idle[1])
	}
	if striped[64] > idle[64] {
		t.Errorf("four streams at extent 64 (%v) were slower than one stream (%v) on the modelled link", striped[64], idle[64])
	}
	for _, kind := range []workload.Kind{workload.Web, workload.Diabolic} {
		schemeRows(t, &b, &taps, kind)
	}
	checkGolden(t, "virtual.golden", b.String())
}

// TestHelloUnknownCapabilityRefusedVirtual is TestHelloUnknownCapabilityRefused
// in a bubble, where its runner's hang and settle timers cost no wall time.
func TestHelloUnknownCapabilityRefusedVirtual(t *testing.T) {
	synctest.Run(func() { TestHelloUnknownCapabilityRefused(t) })
}
