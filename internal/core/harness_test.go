package core

import (
	"bytes"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/blockdev/bcache"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// This file is the engine's one migration test harness: the world two hosts
// live in, the runner every migration goes through, the guest that writes
// through a shadow of its disk, and the return trip. Every run, failed ones
// too, is held to what it leaves behind (runPair).

const (
	testBlocks = 2048 // 8 MiB disk
	testPages  = 256  // 1 MiB memory
	testDomain = 1
)

// TestMain arms the buffer pool's poison mode for the whole package: a
// payload touched after its release reads 0xDB, which the shadow and the
// equivalence checks see as corruption.
func TestMain(m *testing.M) {
	transport.SetBufPoison(true)
	os.Exit(m.Run())
}

// worldSpec shapes a world. The zero value is the default one: a 2 048-block
// disk with every third block written, over one in-memory pipe.
type worldSpec struct {
	blocks  int                                                            // disk size; 0 is testBlocks
	pages   int                                                            // guest memory; 0 is testPages
	fill    func(buf []byte, n int) bool                                   // block n's initial content, false for zeros
	streams int                                                            // more than one stripes the link
	stream  bool                                                           // links are loopback TCP, where the source stages data frames
	traced  bool                                                           // record the frames each side sends
	volume  bool                                                           // the source disk sits behind a bcache volume
	source  func(*blockdev.MemDisk) blockdev.Device                        // wraps the source disk the backend sees
	link    func(src, dst transport.Conn) (transport.Conn, transport.Conn) // wraps or replaces the link, each stream of a striped one
	shared  bool                                                           // runs beside other worlds (t.Parallel): the goroutine count is not its own
}

// everyThird is the default initial disk: every third block patterned.
func everyThird(buf []byte, n int) bool {
	if n%3 != 0 {
		return false
	}
	workload.FillBlock(buf, n, 0)
	return true
}

// filled patterns exactly the blocks of bm.
func filled(bm *bitmap.Bitmap) func([]byte, int) bool {
	return func(buf []byte, n int) bool {
		if !bm.Test(n) {
			return false
		}
		workload.FillBlock(buf, n, 0)
		return true
	}
}

// world is two hosts and the link between them: a running source VM over a
// patterned disk and a fixed memory image and CPU state, a prepared
// destination, the router the guest's I/O goes through, and the shadow of
// every block the guest has written.
type world struct {
	t                  *testing.T
	srcDisk, dstDisk   *blockdev.MemDisk
	src, dst           Host
	router             *Router
	connSrc, connDst   transport.Conn
	pair               func() (transport.Conn, transport.Conn) // a fresh link like the world's; nil for in-memory pipes
	traceSrc, traceDst *traceConn
	shadow             *workload.Shadow
	partial            bool // the destination keeps depending on the source for blocks (on-demand)
	shared             bool // worldSpec.shared
}

func newWorld(t *testing.T, specs ...worldSpec) *world {
	t.Helper()
	var sp worldSpec
	if len(specs) > 0 {
		sp = specs[0]
	}
	if sp.blocks == 0 {
		sp.blocks = testBlocks
	}
	if sp.fill == nil {
		sp.fill = everyThird
	}
	if sp.pages == 0 {
		sp.pages = testPages
	}
	srcDisk := blockdev.NewMemDisk(sp.blocks, blockdev.BlockSize)
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < sp.blocks; n++ {
		if sp.fill(buf, n) {
			if err := srcDisk.WriteBlock(n, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	guest := vm.New("guest", testDomain, sp.pages, 0)
	cpu := make([]byte, 512)
	for i := range cpu {
		cpu[i] = byte(i * 7)
	}
	guest.SetCPU(vm.CPUState{Registers: cpu})
	for p := 0; p < sp.pages; p += 2 {
		workload.FillBlock(buf, p+100000, 0)
		if err := guest.Memory().WritePage(p, buf[:vm.PageSize]); err != nil {
			t.Fatal(err)
		}
	}
	return assemble(t, sp, srcDisk, blockdev.NewMemDisk(sp.blocks, blockdev.BlockSize), guest)
}

// assemble wires two disks and a running guest into a world.
func assemble(t *testing.T, sp worldSpec, srcDisk, dstDisk *blockdev.MemDisk, guest *vm.VM) *world {
	t.Helper()
	w := &world{t: t, srcDisk: srcDisk, dstDisk: dstDisk, shared: sp.shared}
	var srcDev blockdev.Device = srcDisk
	if sp.volume {
		srcDev = bcache.New(srcDisk, 256) // an eighth of the disk: the passes' snapshots copy aside and evict
	}
	if sp.source != nil {
		srcDev = sp.source(srcDisk)
	}
	w.src = Host{VM: guest, Backend: blkback.NewBackend(srcDev, testDomain)}
	w.dst = Host{VM: vm.NewDestination(guest), Backend: blkback.NewBackend(dstDisk, testDomain)}
	w.router = NewRouter(w.src.Backend.Submit)
	var err error
	if w.shadow, err = workload.NewShadow(srcDisk, func(req blockdev.Request) error { return w.router.Submit(req) }); err != nil {
		t.Fatal(err)
	}
	pair := func() (transport.Conn, transport.Conn) { return transport.NewPipe(64) }
	if sp.stream {
		w.pair = func() (transport.Conn, transport.Conn) { return streamPair(t) }
		pair = w.pair
	}
	a, b := make([]transport.Conn, max(sp.streams, 1)), make([]transport.Conn, max(sp.streams, 1))
	for i := range a {
		a[i], b[i] = pair()
		if sp.link != nil {
			a[i], b[i] = sp.link(a[i], b[i])
		}
	}
	w.connSrc, w.connDst = a[0], b[0]
	if len(a) > 1 {
		w.connSrc, w.connDst = transport.NewStriped(a), transport.NewStriped(b)
	}
	if sp.traced {
		w.traceSrc, w.traceDst = &traceConn{inner: w.connSrc}, &traceConn{inner: w.connDst}
		w.connSrc, w.connDst = w.traceSrc, w.traceDst
	}
	return w
}

// streamPair is one loopback TCP connection's two ends.
func streamPair(t *testing.T) (transport.Conn, transport.Conn) {
	t.Helper()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, _ := transport.Accept(l) // a failed dial closes the listener
		accepted <- c
	}()
	a, err := transport.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted
	if b == nil {
		t.Fatal("loopback accept failed")
	}
	return a, b
}

// reverse is the incremental return trip of a world whose migration
// completed: the destination, running the guest on a disk that has since
// diverged from the stale source copy, becomes the source of a new world over
// the same two disks, whose shadow is the diverged disk as it stands.
func (w *world) reverse(sp worldSpec) *world {
	w.t.Helper()
	return assemble(w.t, sp, w.dstDisk, w.srcDisk, w.dst.VM)
}

// runPair runs one migration between the world's hosts — each endpoint on its
// own goroutine — and returns both errors. Whatever the outcome it then holds
// the run to what it left behind: the link is closed, the source's memory and
// disk dirty logging are off, and every goroutine the run started is gone. A
// run both ends call a success must also have left the destination holding
// the guest's disk, memory and CPU state.
func (w *world) runPair(source, dest func() error) (srcErr, dstErr error) {
	w.t.Helper()
	before := runtime.NumGoroutine()
	srcCh, dstCh := make(chan error, 1), make(chan error, 1)
	go func() { srcCh <- source() }()
	go func() { dstCh <- dest() }()
	for hung, n := time.After(time.Minute), 0; n < 2; n++ {
		select {
		case srcErr = <-srcCh:
		case dstErr = <-dstCh:
		case <-hung:
			w.t.Fatal("migration hung: an endpoint never returned")
		}
	}
	w.connSrc.Close()
	w.connDst.Close()
	if mem := w.src.VM.Memory(); mem.Tracking() || w.src.Backend.Tracking() {
		w.t.Errorf("the run left source dirty logging on: memory %v, disk %v", mem.Tracking(), w.src.Backend.Tracking())
	}
	// An exiting goroutine is counted for a few instructions after it has
	// done its last visible thing: give the scheduler a moment, not a leak.
	for settle := time.Now().Add(5 * time.Second); !w.shared && runtime.NumGoroutine() > before && time.Now().Before(settle); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); !w.shared && n > before {
		stacks := make([]byte, 1<<16)
		w.t.Errorf("%d goroutines before the run, %d after it:\n%s", before, n, stacks[:runtime.Stack(stacks, true)])
	}
	if srcErr == nil && dstErr == nil {
		w.checkConverged()
	}
	return srcErr, dstErr
}

// migrate is runPair for a run that must succeed.
func (w *world) migrate(source, dest func() error) {
	w.t.Helper()
	if srcErr, dstErr := w.runPair(source, dest); srcErr != nil || dstErr != nil {
		w.t.Fatalf("source: %v, destination: %v", srcErr, dstErr)
	}
}

// belowHotSets is a stop rule for a guest whose hot sets sit under the
// Default*DirtyThreshold constants: the §IV-A-1 rule at a threshold of disk
// blocks and mem pages, so pre-copy iterates against it.
func belowHotSets(disk, mem int) func(IterationStat) bool {
	return func(st IterationStat) bool {
		st.Threshold = disk
		if st.Phase == PhaseMemPreCopy {
			st.Threshold = mem
		}
		return ContinuePreCopy(st)
	}
}

// memIterations is a stop rule that runs memory pre-copy for exactly n
// iterations, so a scripted guest can write at an iteration's end and still
// get the next one; disk stops by the §IV-A-1 rule.
func memIterations(n int) func(IterationStat) bool {
	return func(st IterationStat) bool {
		if st.Phase == PhaseMemPreCopy {
			return st.Iteration < n
		}
		return ContinuePreCopy(st)
	}
}

// tpmPair runs TPM — IM given initial — between the world's hosts, freezing
// and resuming the guest's I/O through the router unless the configs hook
// those themselves.
func (w *world) tpmPair(src, dst Config, initial *bitmap.Bitmap) (rep *metrics.Report, res *DestResult, srcErr, dstErr error) {
	w.t.Helper()
	if src.OnFreeze == nil {
		src.OnFreeze = w.router.Freeze
	}
	if dst.OnResume == nil {
		dst.OnResume = w.router.ResumeGate
	}
	srcErr, dstErr = w.runPair(
		func() (err error) { rep, err = MigrateSource(src, w.src, w.connSrc, initial); return err },
		func() (err error) { res, err = MigrateDest(dst, w.dst, w.connDst); return err })
	return rep, res, srcErr, dstErr
}

// tpm is tpmPair for a run that must succeed.
func (w *world) tpm(src, dst Config, initial *bitmap.Bitmap) (*metrics.Report, *DestResult) {
	w.t.Helper()
	rep, res, srcErr, dstErr := w.tpmPair(src, dst, initial)
	if srcErr != nil || dstErr != nil {
		w.t.Fatalf("source: %v, destination: %v", srcErr, dstErr)
	}
	return rep, res
}

// checkConverged requires the destination to hold the guest's disk — what
// the shadow recorded — and the source's memory and CPU state.
func (w *world) checkConverged() {
	w.t.Helper()
	if !w.partial {
		if err := w.shadow.Verify(w.dst.Backend.Device()); err != nil {
			w.t.Errorf("destination disk: %v", err)
		}
	}
	if !bytes.Equal(memImage(w.t, w.src.VM.Memory()), memImage(w.t, w.dst.VM.Memory())) {
		w.t.Error("destination memory differs from the source's")
	}
	if !w.dst.VM.CPU().Equal(w.src.VM.CPU()) {
		w.t.Error("CPU state corrupted in transit")
	}
}

// memImage flattens guest memory into one byte slice.
func memImage(t *testing.T, m *vm.Memory) []byte {
	t.Helper()
	out := make([]byte, m.NumPages()*m.PageSize())
	for p := 0; p < m.NumPages(); p++ {
		if err := m.ReadPage(p, out[p*m.PageSize():(p+1)*m.PageSize()]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// guest is a live workload on the world's source: block I/O replayed from a
// generator through the shadow, so every write is mirrored and every read
// checked, and — given hot pages — a writer churning that many pages of
// memory until the guest pauses.
type guest struct {
	w             *world
	quit, memQuit chan struct{}
	done, memDone chan struct{}
	pauseOnce     sync.Once
	err           error
}

// startGuest starts a guest replaying gen at speedup through submit, the
// shadow's when nil.
func (w *world) startGuest(gen workload.Generator, speedup float64, hotPages int, submit func(blockdev.Request) error) *guest {
	if submit == nil {
		submit = w.shadow.Submit
	}
	g := &guest{w: w, quit: make(chan struct{}), memQuit: make(chan struct{}), done: make(chan struct{}), memDone: make(chan struct{})}
	go func() {
		defer close(g.done)
		_, g.err = workload.Replay(gen, testDomain, time.Hour, speedup, submit, g.quit)
	}()
	go func() {
		defer close(g.memDone)
		buf := make([]byte, vm.PageSize)
		for i := uint32(0); hotPages > 0; i++ {
			select {
			case <-g.memQuit:
				return
			default:
			}
			workload.FillBlock(buf, int(i)%hotPages+200000, i)
			if err := w.src.VM.Memory().WritePage(int(i)%hotPages, buf); err != nil {
				w.t.Error(err)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	return g
}

// pause stops the guest's memory writes and returns once the last has landed.
func (g *guest) pause() {
	g.pauseOnce.Do(func() { close(g.memQuit) })
	<-g.memDone
}

// freeze is the OnFreeze hook of a run the guest races: its memory writes
// stop — a page written after the freeze captured the dirty set would never
// travel — then the router holds its I/O.
func (g *guest) freeze() {
	g.pause()
	g.w.router.Freeze()
}

// stop ends the guest and fails the test if any of its I/O failed or read
// stale data.
func (g *guest) stop() {
	g.pause()
	close(g.quit)
	<-g.done
	if g.err != nil {
		g.w.t.Errorf("guest: %v", g.err)
	}
}
