package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
	"time"

	"bbmig/internal/blockdev"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// shapeHotPages is the page-shape guest's working set: every third page of
// the first 192, so a batch's entries skip pages.
const shapeHotPages = 64

// pageShape is how a test guest rewrites a page of its working set.
type pageShape int

const (
	wordTouch  pageShape = iota // one word changes: a delta pays in either form
	genRewrite                  // workload.FillBlock's next generation: one byte in twelve changes, so only the byte form pays
	scramble                    // every byte changes: no delta ever pays
)

func (s pageShape) String() string {
	return [...]string{"word-touch", "generation-rewrite", "page-rewrite"}[s]
}

// scrambled adds gen to every byte of page: two generations apart by less
// than 256 differ in every byte.
func scrambled(page []byte, gen int) {
	for i := range page {
		page[i] += byte(gen)
	}
}

// pageShapeScript is a guest that rewrites its working set when memory
// pre-copy starts and at the end of each of its iterations, in its shape, and
// writes one disk block through the shadow alongside. It writes on the
// source's own goroutine at fixed points of the event stream, so the pages
// each pass owes, and the form each travels in, do not depend on how the pass
// frames them.
type pageShapeScript struct {
	w     *world
	shape pageShape
	gen   uint32
	seen  map[string]bool
}

func (g *pageShapeScript) onEvent(ev Event) {
	at := fmt.Sprintf("%v#%d", ev.Kind, ev.Iteration)
	if ev.Phase != PhaseMemPreCopy || (ev.Kind != EventPhaseStart && ev.Kind != EventIterationEnd) || g.seen[at] {
		return
	}
	g.seen[at] = true
	g.gen++
	mem, page := g.w.src.VM.Memory(), make([]byte, vm.PageSize)
	for p := 0; p < 3*shapeHotPages; p += 3 {
		if err := mem.ReadPage(p, page); err != nil {
			g.w.t.Error(err)
		}
		switch g.shape {
		case wordTouch:
			binary.LittleEndian.PutUint64(page, uint64(g.gen)<<32|uint64(p))
		case genRewrite:
			workload.FillBlock(page, p+500000, g.gen)
		case scramble:
			workload.FillBlock(page, p+500000, 0)
			scrambled(page, int(g.gen))
		}
		if err := mem.WritePage(p, page); err != nil {
			g.w.t.Error(err)
		}
	}
	block := make([]byte, blockdev.BlockSize)
	workload.FillBlock(block, int(g.gen), g.gen)
	req := blockdev.Request{Op: blockdev.Write, Domain: testDomain, Block: int(g.gen) * 7, Data: block}
	if err := g.w.shadow.Submit(req); err != nil {
		g.w.t.Error(err)
	}
}

// TestMemPagesShapes runs the page-shape guest, every shape, at an extent
// limit of 64 under striped lanes, compression, and dedup with delta. Memory
// ends equal on both ends (the harness checks it) and no memory pass sends
// more than ⌈pages ⁄ 64⌉ page frames. Where both forms agree on what pays —
// a touched word always does, a scrambled page never — every page travels
// exactly as often, and in the same forms, as in the same run at the seed's
// limit of one page per frame. A FillBlock generation pays only in a batch's
// byte form: there its pages travel as deltas, and memory costs fewer bytes
// than at one page per frame, where they all go literally.
func TestMemPagesShapes(t *testing.T) {
	for _, c := range []struct {
		name    string
		streams int
		cfg     Config
	}{
		{"striped", 2, Config{Workers: 4, Streams: 2}},
		{"compressed", 1, Config{CompressLevel: 1}},
		{"dedup-delta", 1, Config{Dedup: true, Delta: true}},
	} {
		for _, shape := range []pageShape{wordTouch, scramble, genRewrite} {
			t.Run(c.name+"/"+shape.String(), func(t *testing.T) {
				run := func(limit int) (*metrics.Report, *pageAudit) {
					w := newWorld(t, worldSpec{streams: c.streams})
					pages := &pageAudit{Conn: w.connSrc, frameReader: frameReader{t: t}}
					src, dst := c.cfg, c.cfg
					src.MaxExtentBlocks, src.OnFreeze, dst.OnResume = limit, w.router.Freeze, w.router.ResumeGate
					src.OnEvent = (&pageShapeScript{w: w, shape: shape, seen: map[string]bool{}}).onEvent
					s := newSourceRun(src, w.src, pages, "TPM")
					s.stopRule = memIterations(3)
					var rep *metrics.Report
					w.migrate(
						func() (err error) { rep, err = s.run(s.tpmPhases(nil)); return err },
						func() error { _, err := MigrateDest(dst, w.dst, w.connDst); return err })
					return rep, pages
				}
				one, perPage := run(1)
				rep, batched := run(64)
				for i, pass := range batched.passes {
					if pass.frames > (pass.pages+63)/64 {
						t.Errorf("memory pass %d sent %d pages in %d frames", i+1, pass.pages, pass.frames)
					}
				}
				if shape == genRewrite {
					memBytes := func(r *metrics.Report) (n int64) {
						for _, it := range r.MemIterations {
							n += it.Bytes
						}
						return n
					}
					if rep.DeltaPages() == 0 || one.DeltaPages() != 0 || memBytes(rep) >= memBytes(one) {
						t.Errorf("%d page deltas batched, %d at one page per frame; memory %d B vs %d B",
							rep.DeltaPages(), one.DeltaPages(), memBytes(rep), memBytes(one))
					}
					return
				}
				if len(rep.MemIterations) != len(one.MemIterations) {
					t.Fatalf("%d memory passes, %d at one page per frame", len(rep.MemIterations), len(one.MemIterations))
				}
				for i, it := range rep.MemIterations {
					if was := one.MemIterations[i]; it.Units != was.Units || it.Deltas != was.Deltas || it.Skipped != was.Skipped {
						t.Errorf("memory pass %d: %d pages, %d deltas, %d skipped; at one page per frame %d, %d, %d",
							i+1, it.Units, it.Deltas, it.Skipped, was.Units, was.Deltas, was.Skipped)
					}
				}
				if batched.literals != perPage.literals || batched.deltas != perPage.deltas {
					t.Error("pages travelled in other forms or counts than at one page per frame")
				}
				if deltas := rep.DeltaPages(); (shape == wordTouch) != (deltas > 0) {
					t.Errorf("%d page deltas from a %v guest", deltas, shape)
				}
			})
		}
	}
}

// pageLog counts, across every connection epoch it wraps, how often each page
// was put on the wire, and on the reconnected link which pages travelled and
// whether any did as a delta.
type pageLog struct {
	transport.Conn
	frameReader
	sends, resent []int // shared by the epochs' wrappers
	relinked      bool
}

func (l *pageLog) Send(m transport.Message) error {
	pages, _ := l.pages(m)
	for _, p := range pages {
		l.sends[p.Page]++
		if l.relinked {
			l.resent[p.Page]++
			if len(p.Body) != vm.PageSize {
				l.t.Errorf("page %d sent as a delta after the reconnect", p.Page)
			}
		}
	}
	return l.Conn.Send(m)
}

// TestMemPagesResumeOwedOnly cuts a one-frame-deep link on the eleventh of
// memory iteration 1's sixteen page batches. The destination marks every page
// of a batch received as it takes the batch, so the resumed iteration owes
// only the pages that had not landed: every page that had travels exactly
// once, and every page owed travels once more, literally.
func TestMemPagesResumeOwedOnly(t *testing.T) {
	const limit, cutBatch = 16, 11
	link := func(transport.Conn, transport.Conn) (transport.Conn, transport.Conn) { return transport.NewPipe(1) }
	cfg := Config{MaxExtentBlocks: limit}

	// A dry run of the same migration finds the frame to cut on.
	dry := newWorld(t, worldSpec{link: link})
	tap := &frameTap{Conn: dry.connSrc}
	dry.connSrc = tap
	dry.tpm(cfg, Config{}, nil)
	cut, batches := -1, 0
	for i, fr := range tap.frames {
		if fr.typ == transport.MsgMemPages {
			if batches++; batches == cutBatch {
				cut = i
				break
			}
		}
	}
	if cut < 0 {
		t.Fatalf("the dry run sent %d page batches, want at least %d", batches, cutBatch)
	}

	w := newWorld(t, worldSpec{link: link})
	inj := transport.NewInjector([]transport.Fault{{AfterSends: int64(cut), Kind: transport.FaultCut}})
	relink := newPipeRelinker(inj)
	sends, resent := make([]int, testPages), make([]int, testPages)
	src := cfg
	src.MaxRetries, src.RetryBackoff = 5, time.Millisecond
	src.Redial = func() (transport.Conn, error) {
		c, err := relink.redial()
		return &pageLog{Conn: c, frameReader: frameReader{t: t}, sends: sends, resent: resent, relinked: true}, err
	}
	w.connSrc = &pageLog{Conn: inj.Wrap(w.connSrc), frameReader: frameReader{t: t}, sends: sends, resent: resent}
	rep, _ := w.tpm(src, Config{WaitReconnect: relink.waitReconnect}, nil)
	if rep.Retries != 1 {
		t.Fatalf("survived %d retries, want 1", rep.Retries)
	}
	// The last two frames before the cut may have died in the link.
	landed := (cutBatch - 3) * limit
	for p := range sends {
		if sends[p] < 1 || resent[p] > 1 || p < landed && sends[p] != 1 {
			t.Fatalf("page %d sent %d times, %d after the reconnect; pages below %d landed before the cut", p, sends[p], resent[p], landed)
		}
	}
	if owed := rep.MemIterations[0].Units; owed > testPages-landed {
		t.Fatalf("the resumed iteration sent %d pages, at most %d were owed", owed, testPages-landed)
	}
}

// TestLyingSourceMemPages plays a source whose page batch is malformed in
// each way the canonical form rules out, or whose base check does not match
// the bases the destination holds. The destination fails the migration and
// leaves every page of the batch untouched: the batch is refused whole,
// before any of its entries — a valid literal page 9 first in each — is
// applied.
func TestLyingSourceMemPages(t *testing.T) {
	page, delta := make([]byte, vm.PageSize), make([]byte, oneWordEntry)
	workload.FillBlock(page, 9, 1)
	base := make([]byte, vm.PageSize) // page 10 as the destination holds it
	workload.FillBlock(base, 10, 1)
	cur := append([]byte(nil), base...)
	cur[100] ^= 0xff
	real, _ := vm.AppendPageDelta(nil, base, cur, vm.ByteUnit)
	entry := func(gap uint64, body []byte) []byte {
		return append(binary.AppendUvarint(binary.AppendUvarint(nil, gap), uint64(len(body))), body...)
	}
	batch := func(entries ...[]byte) []byte { return bytes.Join(entries, nil) }
	check := binary.LittleEndian.AppendUint32(nil, crc32.Checksum(base, crc32.MakeTable(crc32.Castagnoli)))
	wrong := binary.LittleEndian.AppendUint32(nil, crc32.Checksum(cur, crc32.MakeTable(crc32.Castagnoli)))
	for _, tc := range []struct {
		name    string
		arg     uint64
		payload []byte
		held    bool // page 10 lands, literally, before the batch
	}{
		{"count above the entries", transport.ExtentArg(9, 3), batch(entry(0, page), entry(0, delta), check), false},
		{"count below the entries", transport.ExtentArg(9, 1), batch(entry(0, page), entry(0, delta), check), false},
		{"duplicate page", transport.ExtentArg(9, 2), batch(entry(0, page), entry(^uint64(0), page)), false},
		{"descending page", transport.ExtentArg(9, 2), batch(entry(0, page), entry(^uint64(0)-1, page)), false},
		{"page past memory", transport.ExtentArg(9, 2), batch(entry(0, page), entry(testPages-10, delta), check), false},
		{"first page skipped", transport.ExtentArg(9, 2), batch(entry(1, page), entry(0, delta), check), false},
		{"short delta", transport.ExtentArg(9, 2), batch(entry(0, page), entry(0, delta[:2]), check), false},
		{"long delta", transport.ExtentArg(9, 2), batch(entry(0, page), entry(0, make([]byte, vm.PageSize/2+1)), check), false},
		{"long page", transport.ExtentArg(9, 2), batch(entry(0, page), entry(0, make([]byte, vm.PageSize+1))), false},
		{"trailing bytes", transport.ExtentArg(9, 2), batch(entry(0, page), entry(0, delta), check, []byte{0}), false},
		{"base check missing", transport.ExtentArg(9, 2), batch(entry(0, page), entry(0, real)), true},
		{"base check without a delta", transport.ExtentArg(9, 1), batch(entry(0, page), check), true},
		{"wrong base check", transport.ExtentArg(9, 2), batch(entry(0, page), entry(0, real), wrong), true},
		{"right base check, bad literal", transport.ExtentArg(9, 2), batch(entry(0, page), entry(0, append([]byte{99, 1}, base[99:100]...)), check), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			var frames []transport.Message
			if tc.held {
				frames = append(frames, transport.Message{Type: transport.MsgMemPage, Arg: 10, Payload: base})
			}
			frames = append(frames, transport.Message{Type: transport.MsgMemPages, Arg: tc.arg, Payload: tc.payload})
			dstErr := lieToDest(w, frames...)
			if dstErr == nil || !strings.Contains(dstErr.Error(), "MEM_PAGES") {
				t.Fatalf("destination error %v, want a refused MEM_PAGES batch", dstErr)
			}
			mem, got := w.dst.VM.Memory(), make([]byte, vm.PageSize)
			if err := mem.ReadPage(10, got); err != nil {
				t.Fatal(err)
			}
			if n := mem.AllocatedPages(); n != 0 && !tc.held || tc.held && (n != 1 || !bytes.Equal(got, base)) {
				t.Fatalf("refused batch left %d pages written", n)
			}
		})
	}
}

// pageMirror follows the page frames of a link in order and keeps the pages
// they leave the destination holding, so it can spell each batch as the
// parent commit did — word-form deltas, each with its own base checksum, and
// no base check — and remember the first batch with a delta: its pages as
// they stood before it.
type pageMirror struct {
	t       *testing.T
	pages   map[int][]byte
	refused map[int][]byte
}

// follow takes m into the mirror and returns it in the parent's form.
func (pm *pageMirror) follow(m transport.Message) transport.Message {
	switch m.Type {
	case transport.MsgMemPage:
		pm.pages[int(m.Arg)] = append([]byte(nil), m.Payload...)
	case transport.MsgMemPages:
		entries, _, err := transport.ParseMemPages(m, testPages, vm.PageSize)
		if err != nil {
			pm.t.Fatal(err)
		}
		var parent []byte
		prev := entries[0].Page - 1
		for _, e := range entries {
			base, body := pm.pages[e.Page], e.Body
			if len(body) != vm.PageSize {
				if pm.refused == nil {
					pm.refused = map[int][]byte{}
					for _, e := range entries {
						pm.refused[e.Page] = pm.pages[e.Page]
					}
				}
				one := vm.NewMemory(1, vm.PageSize)
				cur := make([]byte, vm.PageSize)
				err := errors.Join(one.WritePage(0, base),
					one.ApplyBatch(1, func(int) (int, []byte) { return 0, e.Body }, crc32.Checksum(base, crc32.MakeTable(crc32.Castagnoli))),
					one.ReadPage(0, cur))
				if err != nil {
					pm.t.Fatal(err)
				}
				var pays bool
				if body, pays = vm.AppendPageDelta(nil, base, cur, vm.WordUnit); !pays {
					body = cur
				}
				pm.pages[e.Page] = cur
			} else {
				pm.pages[e.Page] = append([]byte(nil), body...)
			}
			parent = transport.AppendMemPage(parent, e.Page-prev-1, body)
			prev = e.Page
		}
		m.Payload = parent
	}
	return m
}

// parentSource sends every page batch as the parent commit's source did.
type parentSource struct {
	transport.Conn
	*pageMirror
}

func (c parentSource) Send(m transport.Message) error { return c.Conn.Send(c.follow(m)) }

// parentDest reads every page batch as the parent commit's destination did:
// each body a page or 5 to pageSize/2 bytes, nothing after the last entry.
// Its parse failure is that destination's error.
type parentDest struct {
	transport.Conn
	*pageMirror
}

func (c parentDest) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil || m.Type != transport.MsgMemPages {
		return m, err
	}
	c.follow(m)
	_, count := transport.ExtentSplit(m.Arg)
	rest := m.Payload
	for i := 0; i < count; i++ {
		_, n1 := binary.Uvarint(rest)
		size, n2 := binary.Uvarint(rest[max(n1, 0):])
		if n1 <= 0 || n2 <= 0 || size != vm.PageSize && (size < 5 || size > vm.PageSize/2) || size > uint64(len(rest)-n1-n2) {
			return m, fmt.Errorf("core: transport: MEM_PAGES entry %d: %d-byte body", i, size)
		}
		rest = rest[n1+n2+int(size):]
	}
	if len(rest) != 0 {
		return m, fmt.Errorf("core: transport: %d bytes after the last of %d MEM_PAGES entries", len(rest), count)
	}
	return m, nil
}

// TestMemPagesMixedPairFails pairs a batch with a base check with one
// without, either way round: a source that sends the parent's batches (word
// deltas, no base check) to a destination that wants the check, and batches
// with the check to a destination that reads them as the parent did. Neither
// can be read as the other, so the migration fails naming MEM_PAGES at the
// first batch that holds a delta, and every page of that batch still holds
// the base it was cut against.
func TestMemPagesMixedPairFails(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		shape      pageShape // a delta that pays in the parent's word form; one of at least 5 bytes
		link       func(pm *pageMirror) func(s, d transport.Conn) (transport.Conn, transport.Conn)
	}{
		{"parent-source", "base check", wordTouch, func(pm *pageMirror) func(s, d transport.Conn) (transport.Conn, transport.Conn) {
			return func(s, d transport.Conn) (transport.Conn, transport.Conn) { return parentSource{s, pm}, d }
		}},
		{"parent-dest", "bytes after the last", genRewrite, func(pm *pageMirror) func(s, d transport.Conn) (transport.Conn, transport.Conn) {
			return func(s, d transport.Conn) (transport.Conn, transport.Conn) { return s, parentDest{d, pm} }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pm := &pageMirror{t: t, pages: map[int][]byte{}}
			w := newWorld(t, worldSpec{link: tc.link(pm)})
			cfg := Config{MaxExtentBlocks: 64}
			src := cfg
			src.OnFreeze = w.router.Freeze
			src.OnEvent = (&pageShapeScript{w: w, shape: tc.shape, seen: map[string]bool{}}).onEvent
			s := newSourceRun(src, w.src, w.connSrc, "TPM")
			s.stopRule = memIterations(3)
			srcErr, dstErr := w.runPair(
				func() error { _, err := s.run(s.tpmPhases(nil)); return err },
				func() error { _, err := MigrateDest(cfg, w.dst, w.connDst); return err })
			if err := errors.Join(srcErr, dstErr); err == nil || !strings.Contains(err.Error(), "MEM_PAGES") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("source: %v, destination: %v; want the migration failed on a MEM_PAGES %s", srcErr, dstErr, tc.want)
			}
			if len(pm.refused) == 0 {
				t.Fatal("no batch held a delta")
			}
			got := make([]byte, vm.PageSize)
			for p, base := range pm.refused {
				if err := w.dst.VM.Memory().ReadPage(p, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, base) {
					t.Fatalf("page %d of the refused batch was written", p)
				}
			}
		})
	}
}
