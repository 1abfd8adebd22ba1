package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// pageShapeScript is a guest that rewrites its working set when memory
// pre-copy starts and at the end of each of its iterations — one word of each
// page, or each whole page — and writes one disk block through the shadow
// alongside. It writes on the source's own goroutine at fixed points of the
// event stream, so the pages each pass owes, and the form each travels in, do
// not depend on how the pass frames them.
type pageShapeScript struct {
	w         *world
	wordTouch bool
	gen       uint32
	seen      map[string]bool
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
		if g.wordTouch {
			binary.LittleEndian.PutUint64(page, uint64(g.gen)<<32|uint64(p))
		} else {
			workload.FillBlock(page, p+500000, g.gen)
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

// TestMemPagesShapes runs the page-shape guest, both shapes, at an extent
// limit of 64 under striped lanes, compression, and dedup with delta. Memory
// ends equal on both ends (the harness checks it), no memory pass sends more
// than ⌈pages ⁄ 64⌉ page frames, and every page travels exactly as often, and
// in the same forms, as in the same run at the seed's limit of one page per
// frame.
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
		for _, wordTouch := range []bool{true, false} {
			name := c.name + "/page-rewrite"
			if wordTouch {
				name = c.name + "/word-touch"
			}
			t.Run(name, func(t *testing.T) {
				run := func(limit int) (*metrics.Report, *pageAudit) {
					w := newWorld(t, worldSpec{streams: c.streams})
					pages := &pageAudit{Conn: w.connSrc, frameReader: frameReader{t: t}}
					src, dst := c.cfg, c.cfg
					src.MaxExtentBlocks, src.OnFreeze, dst.OnResume = limit, w.router.Freeze, w.router.ResumeGate
					src.OnEvent = (&pageShapeScript{w: w, wordTouch: wordTouch, seen: map[string]bool{}}).onEvent
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
				if deltas := rep.DeltaPages(); wordTouch != (deltas > 0) {
					t.Errorf("%d page deltas from a guest that rewrites words: %v", deltas, wordTouch)
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
// each way the canonical form rules out. The destination fails the migration
// and leaves every page untouched: the batch is refused whole, before any of
// its entries — a valid literal page 9 first in each — is applied.
func TestLyingSourceMemPages(t *testing.T) {
	page, delta := make([]byte, vm.PageSize), make([]byte, oneWordDelta)
	workload.FillBlock(page, 9, 1)
	entry := func(gap uint64, body []byte) []byte {
		return append(binary.AppendUvarint(binary.AppendUvarint(nil, gap), uint64(len(body))), body...)
	}
	batch := func(entries ...[]byte) []byte { return bytes.Join(entries, nil) }
	for _, tc := range []struct {
		name    string
		arg     uint64
		payload []byte
	}{
		{"count above the entries", transport.ExtentArg(9, 3), batch(entry(0, page), entry(0, delta))},
		{"count below the entries", transport.ExtentArg(9, 1), batch(entry(0, page), entry(0, delta))},
		{"duplicate page", transport.ExtentArg(9, 2), batch(entry(0, page), entry(^uint64(0), page))},
		{"descending page", transport.ExtentArg(9, 2), batch(entry(0, page), entry(^uint64(0)-1, page))},
		{"page past memory", transport.ExtentArg(9, 2), batch(entry(0, page), entry(testPages-10, delta))},
		{"first page skipped", transport.ExtentArg(9, 2), batch(entry(1, page), entry(0, delta))},
		{"short delta", transport.ExtentArg(9, 2), batch(entry(0, page), entry(0, delta[:4]))},
		{"long delta", transport.ExtentArg(9, 2), batch(entry(0, page), entry(0, make([]byte, vm.PageSize/2+1)))},
		{"long page", transport.ExtentArg(9, 2), batch(entry(0, page), entry(0, make([]byte, vm.PageSize+1)))},
		{"trailing bytes", transport.ExtentArg(9, 2), append(batch(entry(0, page), entry(0, delta)), 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			dstErr := lieToDest(w, transport.Message{Type: transport.MsgMemPages, Arg: tc.arg, Payload: tc.payload})
			if dstErr == nil || !strings.Contains(dstErr.Error(), "MEM_PAGES") {
				t.Fatalf("destination error %v, want a refused MEM_PAGES batch", dstErr)
			}
			if n := w.dst.VM.Memory().AllocatedPages(); n != 0 {
				t.Fatalf("refused batch left %d pages written", n)
			}
		})
	}
}
