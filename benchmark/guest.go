package main

import (
	"encoding/binary"
	"sync"
	"time"

	"bbmig/internal/blockdev"
	"bbmig/internal/core"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// The live-rewrite guest. One goroutine plays the whole VM:
//
//   - a disk write stream replaying the workload.Web trace (hot rewrites),
//     paced by transfer progress rather than wall clock: it owes rho writes
//     per block's worth of bytes the source has put on the wire, which pins
//     dirty-rate / transfer-rate — the one parameter of the paper's §IV
//     iteration law — whatever the machine's speed that day;
//   - a memory hot set rewritten faster than the link can drain it, so the
//     set frozen at suspend is the writable working set, as in the paper;
//   - an open-loop 1 kHz probe (alternating a read of a block the trace
//     wrote a little while ago and a write to a small reserved area), timed
//     from the instant each request was due, which is what the paper's
//     "disruption time" sees.
const (
	guestRho    = 0.10 // disk writes owed per block of transfer progress
	probePeriod = time.Millisecond
	// A probe slower than this from its due time counts as disrupted. The
	// paper's notion is "a request took visibly longer"; two periods, not
	// one, because the timers of the sandbox this was tuned on tick at
	// about 1 ms, so a probe wakes up to a tick late with nothing wrong.
	slowProbe      = 2 * time.Millisecond
	hotPages       = 512
	pagesPerTick   = 32 // hot pages rewritten per probe period: 32 k pages/s
	reservedBlocks = 8  // probe writes land in the last blocks of the disk
	// Probe reads target the block written readBack trace writes ago: far
	// enough back that the write happened on the source even right after
	// the resume (when the guest first catches up on owed writes), recent
	// enough to still be in the frozen bitmap — which is what makes the
	// destination pull.
	readBack   = 128
	recentRing = 256
)

type interval struct{ from, to time.Time }

type guest struct {
	router   *core.Router
	mem      *vm.Memory
	progress func() int64 // wire bytes the source has sent so far
	trace    workload.Generator
	blocks   int

	// gens is the shadow of the disk: how many times the guest wrote each
	// block. Expected content is the template where 0, FillBlock(n, gen)
	// elsewhere. Only the guest goroutine touches it until it has stopped.
	gens []uint32

	memMu     sync.Mutex
	memFrozen bool

	stop chan struct{}
	done chan struct{}

	// results, valid after wait()
	requests int
	failed   int
	firstErr error
	slow     []interval
	lateness []float64 // ms between a probe's due time and the guest waking for it
}

func newGuest(router *core.Router, mem *vm.Memory, progress func() int64, blocks int, seed int64) *guest {
	return &guest{
		router: router, mem: mem, progress: progress,
		trace:  workload.New(workload.Web, blocks, seed),
		blocks: blocks, gens: make([]uint32, blocks),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
}

// freezeMemory stops the guest's memory writes; it returns once no page
// write is in flight. The source's OnFreeze hook calls it after quiescing
// disk I/O, so the pages captured at suspend are final.
func (g *guest) freezeMemory() {
	g.memMu.Lock()
	g.memFrozen = true
	g.memMu.Unlock()
}

func (g *guest) start() { go g.run() }

// wait stops the guest and returns once its goroutine has exited.
func (g *guest) wait() {
	close(g.stop)
	<-g.done
}

func (g *guest) submit(req blockdev.Request) {
	g.requests++
	if err := g.router.Submit(req); err != nil {
		g.failed++
		if g.firstErr == nil {
			g.firstErr = err
		}
	}
}

func (g *guest) write(block int, buf []byte) {
	g.gens[block]++
	workload.FillBlock(buf, block, g.gens[block])
	g.submit(blockdev.Request{Op: blockdev.Write, Block: block, Domain: 1, Data: buf})
}

func (g *guest) nextTraceWrite() int {
	for {
		if a := g.trace.Next(); a.Op == blockdev.Write {
			return a.Block % g.blocks
		}
	}
}

func (g *guest) run() {
	defer close(g.done)
	bs := blockdev.BlockSize
	wbuf := make([]byte, bs)
	rbuf := make([]byte, bs)
	page := make([]byte, g.mem.PageSize())
	for i := range page {
		page[i] = byte(i * 31)
	}
	var pageGen uint64
	nextPage := 0
	issued := 0
	var recent [recentRing]int
	for i := range recent {
		recent[i] = g.blocks / 4 // before the first writes: the start of the trace's region
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	begin := time.Now()
	for tick := 0; ; tick++ {
		due := begin.Add(time.Duration(tick) * probePeriod)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-g.stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-g.stop:
				return
			default:
			}
		}
		g.lateness = append(g.lateness, float64(time.Since(due).Nanoseconds())/1e6)

		g.memMu.Lock()
		if !g.memFrozen {
			for i := 0; i < pagesPerTick; i++ {
				pageGen++
				binary.LittleEndian.PutUint64(page, pageGen)
				_ = g.mem.WritePage(nextPage, page) // in range by construction
				nextPage = (nextPage + 1) % hotPages
			}
		}
		g.memMu.Unlock()

		owed := int(guestRho*float64(g.progress())/float64(bs)) - issued
		for ; owed > 0; owed-- {
			block := g.nextTraceWrite()
			g.write(block, wbuf)
			recent[issued%recentRing] = block
			issued++
		}

		if tick%2 == 0 {
			block := recent[(issued+recentRing-readBack)%recentRing]
			g.submit(blockdev.Request{Op: blockdev.Read, Block: block, Domain: 1, Data: rbuf})
		} else {
			g.write(g.blocks-1-(tick/2)%reservedBlocks, wbuf)
		}
		if end := time.Now(); end.Sub(due) > slowProbe {
			g.slow = append(g.slow, interval{due, end})
		}
	}
}

// disruptionMs is the total time covered by slow probes, each counted from
// its due time to its completion; overlapping probes count once.
func (g *guest) disruptionMs() float64 {
	var total time.Duration
	var curFrom, curTo time.Time
	for _, iv := range g.slow { // due times ascend, so one sweep merges
		if curTo.IsZero() || iv.from.After(curTo) {
			total += curTo.Sub(curFrom)
			curFrom, curTo = iv.from, iv.to
		} else if iv.to.After(curTo) {
			curTo = iv.to
		}
	}
	total += curTo.Sub(curFrom)
	return float64(total.Nanoseconds()) / 1e6
}
