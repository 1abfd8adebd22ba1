package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/blockdev/bcache"
	"bbmig/internal/transport"
	"bbmig/internal/workload"
)

// zeroExtent is the zero-run suite's extent limit.
const zeroExtent = 16

// inZeroExtent reports whether block n lies in one of zeroMixed's wholly zero
// extents.
func inZeroExtent(n int) bool { return n/zeroExtent%2 == 1 }

// zeroMixed is the zero-run suite's disk, in 16-block extents that repeat
// dense, zero, mixed (its odd blocks zero), zero: half the extents are wholly
// zero, and the mixed ones carry zero blocks inside literal and advert frames.
func zeroMixed(buf []byte, n int) bool {
	if inZeroExtent(n) || n/zeroExtent%4 == 2 && n%2 == 1 {
		return false
	}
	workload.FillBlock(buf, n, 0)
	return true
}

// zeroShapes are the transfer shapes the zero runs must compose with. parent
// is the frames both ends sent for the shape's migration of zeroMixed before
// zero runs existed, when every zero block travelled as a literal, a
// reference or behind a signature round trip.
var zeroShapes = []struct {
	name    string
	streams int
	cfg     Config
	parent  int
}{
	{"workers4-streams2", 2, Config{MaxExtentBlocks: zeroExtent, Workers: 4, Streams: 2}, 397},
	{"compressed", 1, Config{MaxExtentBlocks: zeroExtent, CompressLevel: 1}, 397},
	{"dedup", 1, Config{MaxExtentBlocks: zeroExtent, Dedup: true}, 1005},
	{"delta", 1, Config{MaxExtentBlocks: zeroExtent, Delta: true}, 655},
	{"dedup+delta", 1, Config{MaxExtentBlocks: zeroExtent, Dedup: true, Delta: true}, 1581},
}

// TestZeroExtentShapes migrates zeroMixed under every shape: each wholly zero
// extent travels as one ZERO_EXTENT and nothing else, both ends count its
// blocks with the references, the shadow verifies the destination, and no
// shape sends more frames than it did before zero runs existed.
func TestZeroExtentShapes(t *testing.T) {
	const runs, mixedZeros = testBlocks / zeroExtent / 2, testBlocks / 4 / 2
	for _, sh := range zeroShapes {
		t.Run(sh.name, func(t *testing.T) {
			w := newWorld(t, worldSpec{fill: zeroMixed, streams: sh.streams, traced: true})
			rep, res := w.tpm(sh.cfg, sh.cfg, nil)
			frames := append(w.traceSrc.trace(), w.traceDst.trace()...)
			zero := 0
			for _, f := range frames {
				if strings.HasPrefix(f, "ZERO_EXTENT ") {
					zero++
				}
			}
			if zero != runs {
				t.Errorf("%d ZERO_EXTENT frames, want one per zero extent: %d", zero, runs)
			}
			want := runs * zeroExtent
			if sh.cfg.Dedup {
				want += mixedZeros // the mixed extents' zero blocks, by reference
			}
			if rep.DedupBlocks != want || res.Report.DedupBlocks != want {
				t.Errorf("source counts %d blocks by reference or zero run, destination %d, want %d", rep.DedupBlocks, res.Report.DedupBlocks, want)
			}
			t.Logf("%d frames, %d before zero runs", len(frames), sh.parent)
			if len(frames) > sh.parent {
				t.Errorf("%d frames, %d before zero runs", len(frames), sh.parent)
			}
		})
	}
}

// TestZeroExtentOverStaleDestination returns the guest incrementally to a
// destination whose copy holds stale content exactly where the source's
// extents are now zero: the zero runs must overwrite it, and every owed block
// travels as one.
func TestZeroExtentOverStaleDestination(t *testing.T) {
	for _, sh := range []int{0, len(zeroShapes) - 1} {
		sh := zeroShapes[sh]
		t.Run(sh.name, func(t *testing.T) {
			w := newWorld(t, worldSpec{fill: zeroMixed, streams: sh.streams})
			stale := bitmap.New(testBlocks)
			buf := make([]byte, blockdev.BlockSize)
			for n := 0; n < testBlocks; n++ {
				if inZeroExtent(n) {
					workload.FillBlock(buf, n, 9)
					stale.Set(n)
				} else if err := w.srcDisk.ReadBlock(n, buf); err != nil {
					t.Fatal(err)
				}
				if err := w.dstDisk.WriteBlock(n, buf); err != nil {
					t.Fatal(err)
				}
			}
			w.src.Backend.SeedDirty(stale)
			rep, res := w.tpm(sh.cfg, sh.cfg, w.src.Backend.SwapDirty())
			owed := stale.Count()
			if rep.DiskIterations[0].Units != owed || rep.DedupBlocks != owed || res.Report.DedupBlocks != owed {
				t.Fatalf("sent %d of %d owed blocks, %d (destination: %d) as zero runs",
					rep.DiskIterations[0].Units, owed, rep.DedupBlocks, res.Report.DedupBlocks)
			}
		})
	}
}

// TestZeroExtentResumeOwedOnly cuts a one-frame-deep link halfway through the
// first pass over zeroMixed. The destination's transfer cursor counts the
// zero runs it applied like any other frame, so the resumed pass re-sends
// only the extents that had not landed, and every block that had travels
// exactly once.
func TestZeroExtentResumeOwedOnly(t *testing.T) {
	const cut = testBlocks / zeroExtent / 2 // extent frames the first link carries
	w := newWorld(t, worldSpec{fill: zeroMixed, link: func(transport.Conn, transport.Conn) (transport.Conn, transport.Conn) {
		return transport.NewPipe(1)
	}})
	inj := transport.NewInjector([]transport.Fault{{AfterSends: 2 + cut, Kind: transport.FaultCut}}) // HELLO, ITER_START
	relink := newPipeRelinker(inj)
	sends := make([]int, testBlocks)
	var iters []Event
	cfg := Config{
		MaxExtentBlocks: zeroExtent, MaxRetries: 5, RetryBackoff: time.Millisecond,
		Redial: func() (transport.Conn, error) {
			c, err := relink.redial()
			return &blockLog{Conn: c, sends: sends}, err
		},
		OnEvent: func(ev Event) {
			if ev.Kind == EventIterationEnd && ev.Phase == PhaseDiskPreCopy {
				iters = append(iters, ev)
			}
		},
	}
	w.connSrc = &blockLog{Conn: inj.Wrap(w.connSrc), sends: sends}
	rep, _ := w.tpm(cfg, Config{WaitReconnect: relink.waitReconnect}, nil)
	if rep.Retries != 1 {
		t.Fatalf("survived %d retries, want 1", rep.Retries)
	}
	// The last two frames before the cut may have died in the link.
	landed := (cut - 2) * zeroExtent
	for b, n := range sends {
		if n < 1 || b < landed && n != 1 {
			t.Fatalf("block %d (zero run: %v) sent %d times; blocks below %d landed before the cut", b, inZeroExtent(b), n, landed)
		}
	}
	if resent := iters[0].Units; resent > testBlocks-landed {
		t.Fatalf("the resumed pass sent %d blocks, at most %d were owed", resent, testBlocks-landed)
	}
}

// mapTap is the source disk with hooks: taken runs each time a pass has
// taken the allocation map, before the walker cuts its first extent, and read
// sees every extent (or block) read.
type mapTap struct {
	*blockdev.MemDisk
	taken func()
	read  func(n, count int)
}

func (m mapTap) AllocatedBitmap() *bitmap.Bitmap {
	bm := m.MemDisk.AllocatedBitmap()
	m.taken()
	return bm
}

func (m mapTap) ReadExtent(n, count int, dst []byte) error {
	m.read(n, count)
	return m.MemDisk.ReadExtent(n, count, dst)
}

func (m mapTap) ReadBlock(n int, dst []byte) error { return m.ReadExtent(n, 1, dst) }

// TestHoleWrittenAfterMapTaken has the guest write into the never-written
// half of the disk the moment the first pass has taken the allocation map.
// Nothing in that half is read but the written block: the pass sends the
// half's extents as zero runs, unread, because the map called them holes,
// and the written block, dirty because tracking was on first, travels as
// data after them. The destination verifies against the guest's writes.
func TestHoleWrittenAfterMapTaken(t *testing.T) {
	const half, hole = testBlocks / 2, testBlocks - 10
	var w *world
	var once sync.Once
	var mu sync.Mutex
	var holeReads []string
	w = newWorld(t, worldSpec{
		fill:   func(buf []byte, n int) bool { return n < half && everyThird(buf, n) },
		traced: true,
		source: func(disk *blockdev.MemDisk) blockdev.Device {
			return mapTap{disk, func() {
				once.Do(func() {
					req := blockdev.Request{Op: blockdev.Write, Block: hole, Domain: testDomain, Data: make([]byte, blockdev.BlockSize)}
					if err := w.shadow.Submit(req); err != nil {
						t.Error(err)
					}
				})
			}, func(n, count int) {
				if n+count > half && (n > hole || n+count <= hole) {
					mu.Lock()
					holeReads = append(holeReads, fmt.Sprintf("[%d,+%d)", n, count))
					mu.Unlock()
				}
			}}
		},
	})
	cfg := Config{MaxExtentBlocks: zeroExtent, Workers: 2}
	w.tpm(cfg, cfg, nil)
	w.checkConverged()
	if len(holeReads) > 0 {
		t.Errorf("read never-written extents %v", holeReads)
	}
	frames := w.traceSrc.trace()
	zeroRun := slices.IndexFunc(frames, func(f string) bool {
		return strings.HasPrefix(f, fmt.Sprintf("ZERO_EXTENT arg=%d ", transport.ExtentArg(half, zeroExtent)))
	})
	resent := slices.IndexFunc(frames, func(f string) bool { return strings.HasPrefix(f, fmt.Sprintf("BLOCK_DATA arg=%d ", hole)) })
	if zeroRun < 0 || resent < zeroRun {
		t.Errorf("first hole extent as a zero run at frame %d, the written block as data at frame %d: want both, in that order", zeroRun, resent)
	}
}

// TestHoleWrittenBackWhileMapTaken covers a bcache source whose dirty block
// is written back while the pass takes the allocation map. Before the
// migration the guest writes block x in the never-written half, so x is dirty
// in the cache and not yet on the disk. The cache holds one block per shard.
// Once the disk's own map has been taken, the guest writes x+1, and that
// write evicts x to the disk. x was written before tracking and is not
// written again, so only this pass can carry it: it must count as allocated,
// be read and travel as data, and the destination must verify.
func TestHoleWrittenBackWhileMapTaken(t *testing.T) {
	const half, x = testBlocks / 2, testBlocks - 10
	var w *world
	var once sync.Once
	var xReads atomic.Int32
	write := func(n int, b byte) {
		req := blockdev.Request{Op: blockdev.Write, Block: n, Domain: testDomain, Data: bytes.Repeat([]byte{b}, blockdev.BlockSize)}
		if err := w.shadow.Submit(req); err != nil {
			t.Error(err)
		}
	}
	var cache *bcache.Cache
	w = newWorld(t, worldSpec{
		fill: func(buf []byte, n int) bool { return n < half && everyThird(buf, n) },
		source: func(disk *blockdev.MemDisk) blockdev.Device {
			cache = bcache.New(mapTap{disk, func() { once.Do(func() { write(x+1, 0xCD) }) }, func(n, count int) {
				if n <= x && x < n+count {
					xReads.Add(1)
				}
			}}, 16)
			return cache
		},
	})
	write(x, 0xAB)
	cfg := Config{MaxExtentBlocks: zeroExtent}
	w.tpm(cfg, cfg, nil)
	w.checkConverged()
	if xReads.Load() == 0 {
		t.Error("block x was never read from the disk: the pass took it for a hole")
	}
	if cache.Stats().Writebacks == 0 {
		t.Error("no write-back happened: the test did not exercise the race")
	}
}
