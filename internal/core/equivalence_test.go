package core

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// parallelConfigs is the equivalence matrix: the seed's sequential
// single-stream per-block transfer against coalesced/striped/pipelined
// variants, a source disk behind a bcache volume, whose passes read
// point-in-time snapshots, and loopback TCP links, where the source stages
// data frames. Every row must produce byte-identical results.
var parallelConfigs = []struct {
	name string
	spec worldSpec
	cfg  Config
}{
	{"serial-1stream-extent1", worldSpec{}, Config{MaxExtentBlocks: 1, Workers: 1}},
	{"coalesced-1stream", worldSpec{}, Config{MaxExtentBlocks: 16, Workers: 1}},
	{"pipelined-1stream", worldSpec{}, Config{MaxExtentBlocks: 16, Workers: 4}},
	{"striped-4stream-coalesced", worldSpec{streams: 4}, Config{Streams: 4, MaxExtentBlocks: 64, Workers: 4}},
	{"bcache-volume", worldSpec{volume: true}, Config{MaxExtentBlocks: 16}},
	{"staged-tcp-extent1", worldSpec{stream: true}, Config{MaxExtentBlocks: 1, Workers: 1}},
	{"staged-tcp-striped4", worldSpec{stream: true, streams: 4}, Config{Streams: 4, MaxExtentBlocks: 64, Workers: 4}},
}

// diskImage flattens a disk into one byte slice for cross-run comparison.
func diskImage(t *testing.T, d blockdev.Device) []byte {
	t.Helper()
	out := make([]byte, d.NumBlocks()*d.BlockSize())
	for n := 0; n < d.NumBlocks(); n++ {
		if err := d.ReadBlock(n, out[n*d.BlockSize():(n+1)*d.BlockSize()]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestEquivalenceTPM migrates the same deterministic VM under every
// transfer configuration and requires byte-identical destination disks and
// memories — the wire format may change shape, the data may not.
func TestEquivalenceTPM(t *testing.T) {
	var refDisk, refMem []byte
	for _, pc := range parallelConfigs {
		t.Run(pc.name, func(t *testing.T) {
			w := newWorld(t, pc.spec)
			rep, _ := w.tpm(pc.cfg, pc.cfg, nil)
			if rep.DiskIterations[0].Units != testBlocks {
				t.Fatalf("first iteration sent %d blocks, want %d", rep.DiskIterations[0].Units, testBlocks)
			}
			disk := diskImage(t, w.dstDisk)
			mem := memImage(t, w.dst.VM.Memory())
			if refDisk == nil {
				refDisk, refMem = disk, mem
				return
			}
			if !bytes.Equal(disk, refDisk) {
				t.Fatal("destination disk differs from the serial baseline")
			}
			if !bytes.Equal(mem, refMem) {
				t.Fatal("destination memory differs from the serial baseline")
			}
		})
	}
}

// TestEquivalenceTPMUnderWorkload races a verified write workload against
// the migration under each configuration: the shadow check asserts the
// destination ends byte-identical to the guest's write history, pull path and
// stale-push dropping included — and, on the bcache row, that no write racing
// a pass's snapshot is lost.
func TestEquivalenceTPMUnderWorkload(t *testing.T) {
	for _, pc := range parallelConfigs {
		t.Run(pc.name, func(t *testing.T) {
			w := newWorld(t, pc.spec)
			g := w.startGuest(workload.NewWebServer(testBlocks, 23), 200, 32, nil)
			src := pc.cfg
			src.OnFreeze = g.freeze
			w.tpm(src, pc.cfg, nil)
			g.stop()
		})
	}
}

// TestEquivalenceIM runs the incremental scheme under each configuration: a
// primary migration, deterministic divergence on the destination, then an
// IM back seeded from a bitmap of the divergent blocks. The returned source
// disk must equal the destination's final state, identically across
// configurations.
func TestEquivalenceIM(t *testing.T) {
	divergent := []int{0, 1, 2, 3, 64, 65, 66, 500, 501, 777, 1024, 2047}
	var refDisk []byte
	for _, pc := range parallelConfigs {
		t.Run(pc.name, func(t *testing.T) {
			w := newWorld(t, pc.spec)
			w.tpm(pc.cfg, pc.cfg, nil)

			// Deterministic post-migration divergence on the destination.
			buf := make([]byte, blockdev.BlockSize)
			fresh := bitmap.New(testBlocks)
			for _, n := range divergent {
				workload.FillBlock(buf, n, 99)
				if err := w.dstDisk.WriteBlock(n, buf); err != nil {
					t.Fatal(err)
				}
				fresh.Set(n)
			}
			// Migrate back incrementally: the old source disk is the stale
			// peer copy, only the divergent blocks travel.
			if rep, _ := w.reverse(pc.spec).tpm(pc.cfg, pc.cfg, fresh); rep.Scheme != "IM" {
				t.Errorf("scheme %q, want IM", rep.Scheme)
			}
			disk := diskImage(t, w.srcDisk)
			if refDisk == nil {
				refDisk = disk
				return
			}
			if !bytes.Equal(disk, refDisk) {
				t.Fatal("IM result differs from the serial baseline")
			}
		})
	}
}

// iterationAudit sits under the engine on the source's connection and checks
// the per-iteration invariant every send path shares: between an iteration's
// start and end frames no block or page travels twice.
type iterationAudit struct {
	transport.Conn
	frameReader
	mu      sync.Mutex
	seen    map[int]bool // nil outside pre-copy iterations
	repeats []int
}

func (a *iterationAudit) Send(m transport.Message) error {
	a.mu.Lock()
	units := a.units(m) // every frame: the HELLO says whether payloads are deflated
	switch m.Type {
	case transport.MsgIterStart, transport.MsgMemIterStart:
		a.seen = make(map[int]bool)
	case transport.MsgIterEnd, transport.MsgMemIterEnd:
		a.seen = nil
	default:
		if a.seen != nil {
			for _, u := range units {
				if a.seen[u] {
					a.repeats = append(a.repeats, u)
				}
				a.seen[u] = true
			}
		}
	}
	a.mu.Unlock()
	return a.Conn.Send(m)
}

// frameReader reads the units a frame the source sends carries, as the
// destination will see them: below the engine, payloads are deflated once the
// HELLO has asked for compression.
type frameReader struct {
	t          *testing.T
	compressed bool
}

// units lists the blocks or pages m carries: a page batch's entries, or the
// run transport.CarriedUnits names.
func (r *frameReader) units(m transport.Message) []int {
	var units []int
	if pages, _ := r.pages(m); pages != nil {
		for _, p := range pages {
			units = append(units, p.Page)
		}
		return units
	}
	start, n := transport.CarriedUnits(m)
	for u := start; u < start+n; u++ {
		units = append(units, u)
	}
	return units
}

// pages returns the pages a memory frame carries, a page frame as a
// one-entry batch, or nil for any other frame, and the frame's size as the
// engine framed it. An entry's body is the literal page when it is a whole
// page long, a page delta otherwise.
func (r *frameReader) pages(m transport.Message) ([]transport.MemPage, int) {
	if m.Type == transport.MsgHello {
		r.compressed = m.Arg&helloCompress != 0
	}
	switch m.Type {
	case transport.MsgMemPage, transport.MsgMemPageDelta, transport.MsgMemPages:
	default:
		return nil, 0
	}
	if r.compressed {
		m.Payload = append([]byte(nil), m.Payload...) // inflated in place
		c, err := transport.NewCompressed(replayConn{m}, 0)
		if err == nil {
			m, err = c.Recv()
		}
		if err != nil {
			r.t.Fatalf("inflating a %v frame: %v", m.Type, err)
		}
	}
	if m.Type != transport.MsgMemPages {
		return []transport.MemPage{{Page: int(m.Arg), Body: m.Payload}}, m.FrameSize()
	}
	pages, _, err := transport.ParseMemPages(m, 1<<30, vm.PageSize)
	if err != nil {
		r.t.Errorf("the source sent a malformed page batch: %v", err)
	}
	return pages, m.FrameSize()
}

// replayConn receives one frame, forever.
type replayConn struct{ m transport.Message }

func (c replayConn) Send(transport.Message) error     { return nil }
func (c replayConn) Recv() (transport.Message, error) { return c.m, nil }
func (c replayConn) Close() error                     { return nil }

// racingHotPages is the racing guest's page working set: every fifth page.
const racingHotPages = 48

// pagePass is what one memory pass — a pre-copy iteration, or the freeze —
// put on the wire: its page frames, their wire bytes, the pages they carried,
// and how many of those were one-word deltas.
type pagePass struct {
	frames, pages, oneWord int
	bytes                  int64
}

// The body of a page delta that changes one word: in a MEM_PAGE_DELTA frame
// the base checksum, one (skip, literal) record and the word; in a MEM_PAGES
// entry at most one record of the word's changed bytes.
const (
	oneWordDelta = 4 + 1 + 1 + 8
	oneWordEntry = 1 + 1 + 8
)

// pageAudit counts, per page, the literal and delta entries the source sends,
// and what each memory pass sent.
type pageAudit struct {
	transport.Conn
	frameReader
	literals, deltas [testPages]int
	passes           []pagePass
}

func (a *pageAudit) Send(m transport.Message) error {
	if m.Type == transport.MsgMemIterStart || m.Type == transport.MsgSuspend {
		a.passes = append(a.passes, pagePass{})
	}
	if pages, size := a.pages(m); pages != nil {
		pass := &a.passes[len(a.passes)-1]
		pass.frames++
		pass.bytes += int64(size)
		oneWord := oneWordDelta
		if m.Type == transport.MsgMemPages {
			oneWord = oneWordEntry
		}
		for _, p := range pages {
			pass.pages++
			switch n := len(p.Body); {
			case n == vm.PageSize:
				a.literals[p.Page]++
				continue
			case n <= oneWord:
				pass.oneWord++
			}
			a.deltas[p.Page]++
		}
	}
	return a.Conn.Send(m)
}

// runRacing migrates w under a progress-paced racing guest: per eight
// units the source sends, one verified disk write into a 96-block hot set and
// three page writes into a 48-page hot set, so every iteration is raced by
// rewrites of blocks and pages on both sides of its cursor. The guest
// rewrites pages in shape: one word of the page it wrote before, its next
// FillBlock generation, or every byte. With resendAll the engine sends
// re-dirtied units anyway, and every page literally — the reference the skip
// and the page deltas are measured against.
func (w *world) runRacing(cfg Config, resendAll bool, shape pageShape) (*metrics.Report, *sourceRun, *pageAudit) {
	w.t.Helper()
	mem := w.src.VM.Memory()
	pages := &pageAudit{Conn: w.connSrc, frameReader: frameReader{t: w.t}}
	audit := &iterationAudit{Conn: pages, frameReader: frameReader{t: w.t}}
	page := make([]byte, blockdev.BlockSize)
	block := make([]byte, blockdev.BlockSize)
	guest := &workload.Paced{Conn: audit, Every: 8, Round: func(i int) {
		req := blockdev.Request{Op: blockdev.Write, Domain: testDomain, Block: (i * 7 % 96) * 21, Data: block}
		if err := w.shadow.Submit(req); err != nil {
			w.t.Errorf("guest write: %v", err)
		}
		for k := 3 * i; k < 3*i+3; k++ {
			p := (k * 5 % racingHotPages) * 5
			switch shape {
			case wordTouch:
				workload.FillBlock(page, p+300000, 0)
				binary.LittleEndian.PutUint64(page, uint64(k)+1)
			case genRewrite:
				workload.FillBlock(page, p+300000, uint32(k))
			case scramble:
				workload.FillBlock(page, p+300000, 0)
				scrambled(page, k/racingHotPages+1) // the page's own generation
			}
			if err := mem.WritePage(p, page); err != nil {
				w.t.Errorf("guest page write: %v", err)
			}
		}
	}}
	srcCfg := cfg
	srcCfg.OnFreeze = func() {
		guest.Stop()
		w.router.Freeze()
	}
	cfg.OnResume = w.router.ResumeGate

	s := newSourceRun(srcCfg, w.src, guest, "TPM")
	s.resendAll = resendAll
	s.stopRule = belowHotSets(8, 4)
	var rep *metrics.Report
	w.migrate(
		func() (err error) { rep, err = s.run(s.tpmPhases(nil)); return err },
		func() error { _, err := MigrateDest(cfg, w.dst, w.connDst); return err })
	if len(audit.repeats) != 0 {
		w.t.Fatalf("units sent twice within one iteration: %v", audit.repeats)
	}
	return rep, s, pages
}

// parentLiteralPages is the most memory pages (pre-copy and freeze, all
// literal) the commit before page deltas sent under runRacing's whole-page
// guest (the generation rewrite then, whose deltas did not pay in the word
// form; the scrambled page's never do), over every send path below and
// repeated runs: the worst-case bound is measured against it.
const parentLiteralPages = 285

// TestEquivalenceSkipRedirtied runs the racing guest across every send path
// and checks the skip rule's contract on each: the destination equals the
// source at the freeze; no unit travels twice within an iteration; every
// iteration accounts for its whole set as sent + skipped; freeze-and-copy and
// the post-copy push leave nothing out; and the run sends no more blocks than
// the same run with the skip forced off. The page half of the contract is in
// bytes, over three guests. One that touches a word per write: every page
// travels literally exactly once, every hot page of the final set as a
// one-word delta, and memory costs fewer bytes than resending everything
// literally. One that changes every byte of a page, for which no delta ever
// pays: the skip still triggers, no delta frame is sent, and — the worst case
// against the parent commit — at most one literal page more per working-set
// page. One that writes FillBlock's next generation, a byte in twelve: in a
// batch's byte form its deltas pay and memory costs fewer bytes than
// resending everything; at one page per frame, in the word form, it is the
// never-paying guest.
func TestEquivalenceSkipRedirtied(t *testing.T) {
	paths := []struct {
		name    string
		streams int
		cfg     Config
	}{
		{"per-block", 1, Config{}},
		{"extents", 1, Config{MaxExtentBlocks: 16}},
		{"readahead", 1, Config{MaxExtentBlocks: 16, Readahead: 4}},
		{"workers", 1, Config{MaxExtentBlocks: 16, Workers: 2}},
		{"striped", 2, Config{Streams: 2, MaxExtentBlocks: 16, Workers: 2}},
		{"compressed", 1, Config{MaxExtentBlocks: 16, CompressLevel: 1}},
		{"dedup", 1, Config{MaxExtentBlocks: 16, Dedup: true}},
		{"delta", 1, Config{MaxExtentBlocks: 16, Delta: true}},
	}
	sum := func(its []metrics.Iteration, field func(metrics.Iteration) int64) (n int64) {
		for _, it := range its {
			n += field(it)
		}
		return n
	}
	units := func(it metrics.Iteration) int64 { return int64(it.Units) }
	wire := func(it metrics.Iteration) int64 { return it.Bytes }
	for _, pc := range paths {
		for _, shape := range []pageShape{wordTouch, scramble, genRewrite} {
			t.Run(pc.name+"/"+shape.String(), func(t *testing.T) {
				run := func(resendAll bool) (*metrics.Report, *sourceRun, *pageAudit) {
					rep, s, pages := newWorld(t, worldSpec{streams: pc.streams}).runRacing(pc.cfg, resendAll, shape)
					for _, ph := range []struct {
						name  string
						total int
						its   []metrics.Iteration
					}{{"disk", testBlocks, rep.DiskIterations}, {"mem", testPages, rep.MemIterations}} {
						set := ph.total // iteration 1 owes everything, iteration k+1 what k left dirty
						for _, it := range ph.its {
							if it.Units+it.Skipped != set {
								t.Fatalf("%s iteration %d: sent %d + skipped %d != its set of %d", ph.name, it.Index, it.Units, it.Skipped, set)
							}
							set = it.DirtyEnd
						}
					}
					// The freeze bitmap is what the last disk iteration left dirty
					// plus the guest's writes during memory pre-copy.
					last := rep.DiskIterations[len(rep.DiskIterations)-1]
					if got := rep.BlocksPushed + rep.BlocksPulled; got < last.DirtyEnd {
						t.Fatalf("post-copy moved %d blocks, fewer than the %d the last disk iteration left dirty", got, last.DirtyEnd)
					}
					return rep, s, pages
				}
				skip, s, pages := run(false)
				all, _, allPages := run(true)
				if skip.SkippedBlocks() == 0 || skip.SkippedPages() == 0 {
					t.Fatalf("racing guest never triggered the skip: %d blocks, %d pages", skip.SkippedBlocks(), skip.SkippedPages())
				}
				if all.SkippedBlocks() != 0 || all.SkippedPages() != 0 || all.DeltaPages() != 0 {
					t.Fatalf("reference run skipped %d blocks, %d pages and sent %d deltas", all.SkippedBlocks(), all.SkippedPages(), all.DeltaPages())
				}
				sb := sum(skip.DiskIterations, units) + int64(skip.BlocksPushed+skip.BlocksPulled)
				ab := sum(all.DiskIterations, units) + int64(all.BlocksPushed+all.BlocksPulled)
				if sb > ab {
					t.Fatalf("skip sent %d blocks, resend-everything %d", sb, ab)
				}
				literals, deltas := 0, 0
				for p := range pages.literals {
					literals += pages.literals[p]
					deltas += pages.deltas[p]
				}
				final := skip.MemIterations[len(skip.MemIterations)-1]
				memBytes, allBytes := sum(skip.MemIterations, wire), sum(all.MemIterations, wire)
				t.Logf("blocks %d vs %d; pages: %d literal + %d delta in %d B vs %d literal in %d B (skipped %d, %d; |W| = %d)",
					sb, ab, literals, deltas, memBytes, sum(all.MemIterations, units), allBytes, skip.SkippedBlocks(), skip.SkippedPages(), s.pages.Hot())
				if s.pages.Hot() != racingHotPages {
					t.Fatalf("|W| = %d, the guest's hot set is %d pages", s.pages.Hot(), racingHotPages)
				}
				if shape == wordTouch {
					for p := range pages.literals {
						if pages.literals[p] != 1 || pages.deltas[p] > allPages.literals[p]-1 {
							t.Fatalf("page %d: %d literals, %d deltas (resend-everything: %d literals)", p, pages.literals[p], pages.deltas[p], allPages.literals[p])
						}
					}
					// The freeze carries its pages in batches of up to the extent
					// limit, as one-word deltas, and books what it put on the wire.
					freeze, limit := pages.passes[len(pages.passes)-1], max(pc.cfg.MaxExtentBlocks, 1)
					if final.Units == 0 || final.Deltas != final.Units || freeze.pages != final.Units || freeze.oneWord != final.Units ||
						freeze.frames != (final.Units+limit-1)/limit || freeze.bytes != final.Bytes {
						t.Fatalf("freeze: %d pages, %d deltas, %d B booked; %+v sent: not one changed word each, batched %d to a frame",
							final.Units, final.Deltas, final.Bytes, freeze, limit)
					}
					if memBytes >= allBytes {
						t.Fatalf("memory cost %d B, resend-everything %d B", memBytes, allBytes)
					}
					return
				}
				if shape == genRewrite && pc.cfg.MaxExtentBlocks > 1 {
					if deltas == 0 || memBytes >= allBytes {
						t.Fatalf("%d deltas, memory cost %d B, resend-everything %d B: the byte form did not pay", deltas, memBytes, allBytes)
					}
					return
				}
				if deltas != 0 {
					t.Fatalf("%d delta frames for a guest whose deltas never pay", deltas)
				}
				if literals > parentLiteralPages+s.pages.Hot() {
					t.Fatalf("%d literal pages; the parent commit sent at most %d and |W| = %d", literals, parentLiteralPages, s.pages.Hot())
				}
			})
		}
	}
}

// TestFreezeAndPostCopyNeverSkip re-dirties every tracker bit the moment the
// freeze sets have been captured: were freeze-and-copy or the post-copy push
// to consult the live tracker, they would leave everything out. They send
// all of it.
func TestFreezeAndPostCopyNeverSkip(t *testing.T) {
	w := newWorld(t)
	mem := w.src.VM.Memory()
	buf := make([]byte, blockdev.BlockSize)
	const lateBlocks, latePages = 300, 40
	redirty := &freezeWatch{Conn: w.connSrc}
	pagesBeforeCPU := 0
	redirty.onFirstFreezeFrame = func() {
		w.src.Backend.SeedDirty(bitmap.NewAllSet(testBlocks))
		for p := 0; p < testPages; p++ { // rewriting a page with its own content dirties it and changes nothing
			if err := mem.ReadPage(p, buf); err != nil {
				t.Error(err)
			}
			if err := mem.WritePage(p, buf); err != nil {
				t.Error(err)
			}
		}
	}
	redirty.onFreezePage = func() { pagesBeforeCPU++ }
	cfg := Config{OnFreeze: func() {
		// The freeze sets: written after the last pre-copy iteration.
		for n := 0; n < lateBlocks; n++ {
			if err := w.shadow.Submit(blockdev.Request{Op: blockdev.Write, Domain: testDomain, Block: n * 5, Data: buf}); err != nil {
				t.Error(err)
			}
		}
		for p := 0; p < latePages; p++ {
			workload.FillBlock(buf, p+400000, 1)
			if err := mem.WritePage(p*3, buf); err != nil {
				t.Error(err)
			}
		}
		w.router.Freeze()
	}}
	w.connSrc = redirty
	rep, _ := w.tpm(cfg, Config{}, nil)
	if !redirty.fired {
		t.Fatal("trackers were never re-dirtied")
	}
	if pagesBeforeCPU != latePages {
		t.Fatalf("freeze-and-copy sent %d pages of a %d-page final set", pagesBeforeCPU, latePages)
	}
	if got := rep.BlocksPushed + rep.BlocksPulled; got != lateBlocks {
		t.Fatalf("post-copy moved %d blocks of a %d-block freeze bitmap", got, lateBlocks)
	}
}

// freezeWatch watches the source's freeze-and-copy frames: the first page (or
// CPU state) after SUSPEND proves the freeze sets were captured.
type freezeWatch struct {
	transport.Conn
	suspended, fired   bool
	onFirstFreezeFrame func()
	onFreezePage       func()
}

func (c *freezeWatch) Send(m transport.Message) error {
	switch {
	case m.Type == transport.MsgSuspend:
		c.suspended = true
	case c.suspended && (m.Type == transport.MsgMemPage || m.Type == transport.MsgCPUState):
		if !c.fired {
			c.fired = true
			c.onFirstFreezeFrame()
		}
		if m.Type == transport.MsgMemPage {
			c.onFreezePage()
		}
	}
	return c.Conn.Send(m)
}

// TestLanePool exercises the pool directly: drain as a barrier, and the nil
// pool's inline mode.
func TestLanePool(t *testing.T) {
	p := newLanePool(4, 0)
	defer p.close()
	var applied atomic.Int64
	count := func(bitmap.Extent, []byte) error { applied.Add(1); return nil }
	for i := 0; i < 100; i++ {
		if err := p.do(job{run: count}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.drain(); err != nil {
		t.Fatal(err)
	}
	if n := applied.Load(); n != 100 {
		t.Fatalf("drain returned before %d/100 jobs", n)
	}

	inline := newLanePool(1, 0)
	if err := inline.do(job{run: count}); err != nil || applied.Load() != 101 {
		t.Fatal("inline pool did not run the job synchronously")
	}
	inline.close()
}

// TestOversizedMaxExtentClamped is a regression test: a MaxExtentBlocks far
// beyond the device (or the frame payload limit) must be clamped, not used
// to size staging buffers — the unclamped value once requested a 64 GiB
// allocation in the post-copy pusher.
func TestOversizedMaxExtentClamped(t *testing.T) {
	cfg := Config{MaxExtentBlocks: transport.MaxExtentBlocks, Workers: 2}
	newWorld(t).tpm(cfg, cfg, nil)
}
