package main

import (
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/transport"
	"bbmig/internal/workload"
)

func TestPickWorkload(t *testing.T) {
	cases := map[string]struct {
		kind workload.Kind
		ok   bool
	}{
		"web":        {workload.Web, true},
		"stream":     {workload.Stream, true},
		"diabolical": {workload.Diabolic, true},
		"kernel":     {workload.Kernel, true},
		"none":       {0, false},
		"":           {0, false},
		"bogus":      {0, false},
	}
	for in, want := range cases {
		kind, ok := pickWorkload(in)
		if ok != want.ok || (ok && kind != want.kind) {
			t.Errorf("pickWorkload(%q) = %v, %v", in, kind, ok)
		}
	}
}

func TestOpenOrCreate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img")
	d, err := openOrCreate(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumBlocks() != 1<<20/blockdev.BlockSize {
		t.Fatalf("NumBlocks = %d", d.NumBlocks())
	}
	buf := make([]byte, blockdev.BlockSize)
	buf[0] = 0xAA
	d.WriteBlock(3, buf)
	d.Close()
	// reopening keeps contents and ignores the size hint
	d2, err := openOrCreate(path, 999)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumBlocks() != 1<<20/blockdev.BlockSize {
		t.Fatal("existing image resized")
	}
	got := make([]byte, blockdev.BlockSize)
	d2.ReadBlock(3, got)
	if got[0] != 0xAA {
		t.Fatal("contents lost on reopen")
	}
}

func TestXferOptsConfig(t *testing.T) {
	cfg := xferOpts{streams: 4, extentBlocks: 16, workers: 3, compressLevel: 6}.config()
	if cfg.Streams != 4 || cfg.MaxExtentBlocks != 16 || cfg.Workers != 3 || cfg.CompressLevel != 6 {
		t.Fatalf("config mapping lost knobs: %+v", cfg)
	}
	if cfg.OnEvent != nil {
		t.Fatal("OnEvent set without -progress")
	}
	if c2 := (xferOpts{progress: true}).config(); c2.OnEvent == nil {
		t.Fatal("-progress did not install an event handler")
	}
}

func TestImagesEqual(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a")
	b := filepath.Join(dir, "b")
	for _, p := range []string{a, b} {
		d, err := blockdev.CreateFileDisk(p, 4, blockdev.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		d.Close()
	}
	same, err := imagesEqual(a, b)
	if err != nil || !same {
		t.Fatalf("identical images: %v %v", same, err)
	}
	d, _ := blockdev.OpenFileDisk(b, blockdev.BlockSize)
	buf := make([]byte, blockdev.BlockSize)
	buf[0] = 1
	d.WriteBlock(2, buf)
	d.Close()
	same, err = imagesEqual(a, b)
	if err != nil || same {
		t.Fatalf("differing images: %v %v", same, err)
	}
	if _, err := imagesEqual(a, filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing image accepted")
	}
}

// TestSendRecvRoundTripWithIM drives the real CLI paths end to end over
// loopback TCP: primary migration with compression and fresh-bitmap
// persistence, then an incremental migration back seeded from the saved
// bitmap file.
func TestSendRecvRoundTripWithIM(t *testing.T) {
	dir := t.TempDir()
	srcImg := filepath.Join(dir, "src.img")
	dstImg := filepath.Join(dir, "dst.img")
	bmPath := filepath.Join(dir, "fresh.bitmap")
	const sizeMB, memMB = 8, 2

	// Pre-populate the source image.
	d, err := openOrCreate(srcImg, sizeMB)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < d.NumBlocks(); n += 5 {
		workload.FillBlock(buf, n, 0)
		d.WriteBlock(n, buf)
	}
	d.Close()

	// Primary migration src → dst with compression and bitmap persistence.
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recvDone := make(chan error, 1)
	go func() { recvDone <- recvServe(l, dstImg, sizeMB, memMB, xferOpts{compressLevel: -1}, bmPath) }()
	if err := runSend(l.Addr().String(), srcImg, sizeMB, memMB, "none", 0, 1, 1, xferOpts{compressLevel: -1}, ""); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := <-recvDone; err != nil {
		t.Fatalf("recv: %v", err)
	}
	same, err := imagesEqual(srcImg, dstImg)
	if err != nil || !same {
		t.Fatalf("images differ after primary migration: %v %v", same, err)
	}
	bm, err := bitmap.LoadFile(bmPath)
	if err != nil {
		t.Fatalf("fresh bitmap not persisted: %v", err)
	}
	if bm.Len() != sizeMB<<20/blockdev.BlockSize {
		t.Fatalf("bitmap covers %d blocks", bm.Len())
	}

	// Dirty a few blocks on the destination (work done "at home") and
	// record them in the bitmap file, as the daemon's gate would have.
	d2, err := blockdev.OpenFileDisk(dstImg, blockdev.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 100} {
		workload.FillBlock(buf, n, 9)
		d2.WriteBlock(n, buf)
		bm.Set(n)
	}
	d2.Close()
	if err := bm.SaveFile(bmPath); err != nil {
		t.Fatal(err)
	}

	// Incremental migration dst → src seeded from the bitmap file.
	l2, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recvDone2 := make(chan error, 1)
	go func() { recvDone2 <- recvServe(l2, srcImg, sizeMB, memMB, xferOpts{}, "") }()
	if err := runSend(l2.Addr().String(), dstImg, sizeMB, memMB, "none", 0, 1, 1, xferOpts{}, bmPath); err != nil {
		t.Fatalf("IM send: %v", err)
	}
	if err := <-recvDone2; err != nil {
		t.Fatalf("IM recv: %v", err)
	}
	same, err = imagesEqual(srcImg, dstImg)
	if err != nil || !same {
		t.Fatalf("images differ after incremental migration back: %v %v", same, err)
	}
}

// TestRunSendValidation covers the argument checks.
func TestRunSendValidation(t *testing.T) {
	if err := runSend("", "", 1, 1, "none", 0, 1, 1, xferOpts{}, ""); err == nil {
		t.Fatal("missing args accepted")
	}
	if err := runRecv(":0", "", 1, 1, xferOpts{}, ""); err == nil {
		t.Fatal("recv without image accepted")
	}
	if !strings.Contains(runSend("", "", 1, 1, "none", 0, 1, 1, xferOpts{}, "").Error(), "-addr") {
		t.Fatal("unhelpful error")
	}
}

// TestStripedCompressedMigration runs a full send/recv over loopback TCP
// with 4 striped streams, per-stream compression, extent coalescing, and
// worker pools, then verifies the images match.
func TestStripedCompressedMigration(t *testing.T) {
	dir := t.TempDir()
	srcImg := filepath.Join(dir, "src.img")
	dstImg := filepath.Join(dir, "dst.img")
	const sizeMB, memMB = 4, 1

	// Pre-populate the source with recognizable content.
	d, err := openOrCreate(srcImg, sizeMB)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < d.NumBlocks(); n += 2 {
		workload.FillBlock(buf, n, 3)
		d.WriteBlock(n, buf)
	}
	d.Close()

	opts := xferOpts{streams: 4, extentBlocks: 16, workers: 3, compressLevel: 6, progress: true}
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recvDone := make(chan error, 1)
	go func() { recvDone <- recvServe(l, dstImg, sizeMB, memMB, opts, "") }()
	if err := runSend(l.Addr().String(), srcImg, sizeMB, memMB, "none", 0, 1, 1, opts, ""); err != nil {
		t.Fatalf("striped send: %v", err)
	}
	if err := <-recvDone; err != nil {
		t.Fatalf("striped recv: %v", err)
	}
	same, err := imagesEqual(srcImg, dstImg)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatal("images differ after striped compressed migration")
	}
}

// TestBareRecvFollowsSender runs `send -compress -dedup -delta`, and
// `send -streams 4 -extent-blocks 16 -workers 2`, against a `recv` given none
// of those flags: the receiver follows what the sender puts on the wire, the
// bundle's width included, and the images end equal.
func TestBareRecvFollowsSender(t *testing.T) {
	for name, send := range map[string]xferOpts{
		"codecs":  {compressLevel: -1, dedup: true, delta: true},
		"striped": {streams: 4, extentBlocks: 16, workers: 2},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			srcImg := filepath.Join(dir, "src.img")
			dstImg := filepath.Join(dir, "dst.img")
			const sizeMB, memMB = 4, 1

			// Every other block holds one of 16 contents: repeats for dedup to
			// reference, zeros for it to elide.
			d, err := openOrCreate(srcImg, sizeMB)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, blockdev.BlockSize)
			for n := 0; n < d.NumBlocks(); n += 2 {
				workload.FillBlock(buf, n%16, 3)
				d.WriteBlock(n, buf)
			}
			d.Close()

			l, err := transport.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			recvDone := make(chan error, 1)
			go func() { recvDone <- recvServe(l, dstImg, sizeMB, memMB, xferOpts{}, "") }()
			if err := runSend(l.Addr().String(), srcImg, sizeMB, memMB, "none", 0, 1, 1, send, ""); err != nil {
				t.Fatalf("send: %v", err)
			}
			if err := <-recvDone; err != nil {
				t.Fatalf("recv: %v", err)
			}
			if same, err := imagesEqual(srcImg, dstImg); err != nil || !same {
				t.Fatalf("images differ: %v %v", same, err)
			}
		})
	}
}

// cutProxy forwards TCP to backend, severing the first connection after
// capBytes of client→backend traffic; later connections pass clean.
type cutProxy struct {
	l       net.Listener
	backend string
	cap     int64
	once    sync.Once
}

func startCutProxy(t *testing.T, backend string, capBytes int64) *cutProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cutProxy{l: l, backend: backend, cap: capBytes}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			flaky := false
			p.once.Do(func() { flaky = true })
			go p.pipe(c, flaky)
		}
	}()
	t.Cleanup(func() { l.Close() })
	return p
}

func (p *cutProxy) pipe(client net.Conn, flaky bool) {
	server, err := net.Dial("tcp", p.backend)
	if err != nil {
		client.Close()
		return
	}
	go func() {
		if flaky {
			io.CopyN(server, client, p.cap)
		} else {
			io.Copy(server, client)
		}
		client.Close()
		server.Close()
	}()
	io.Copy(client, server)
	client.Close()
	server.Close()
}

// TestCLIResumableMigration cuts the TCP link mid-migration between the two
// CLI endpoints; -max-retries lets the sender resume and finish, and the
// images converge.
func TestCLIResumableMigration(t *testing.T) {
	dir := t.TempDir()
	srcImg := filepath.Join(dir, "src.img")
	dstImg := filepath.Join(dir, "dst.img")
	const sizeMB, memMB = 8, 2

	d, err := openOrCreate(srcImg, sizeMB)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < d.NumBlocks(); n += 2 {
		workload.FillBlock(buf, n, 3)
		d.WriteBlock(n, buf)
	}
	d.Close()

	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Cut mid disk pre-copy (~half the 8 MiB image).
	proxy := startCutProxy(t, l.Addr().String(), 4<<20)

	sendOpts := xferOpts{maxRetries: 5, retryBackoff: 5 * time.Millisecond, journalPath: filepath.Join(dir, "j.bin")}
	recvDone := make(chan error, 1)
	go func() { recvDone <- recvServe(l, dstImg, sizeMB, memMB, xferOpts{}, "") }()
	if err := runSend(proxy.l.Addr().String(), srcImg, sizeMB, memMB, "none", 0, 1, 1, sendOpts, ""); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := <-recvDone; err != nil {
		t.Fatalf("recv: %v", err)
	}
	same, err := imagesEqual(srcImg, dstImg)
	if err != nil || !same {
		t.Fatalf("images differ after resumed CLI migration: %v %v", same, err)
	}
	// Nothing is owed after success, so no journal is left behind.
	if _, err := os.Stat(sendOpts.journalPath); !os.IsNotExist(err) {
		t.Fatalf("journal left behind after success: %v", err)
	}
}

// TestCLIColdResume re-runs a crashed migration from its journal: exactly
// the owed blocks travel (incrementally) and the images converge.
func TestCLIColdResume(t *testing.T) {
	dir := t.TempDir()
	srcImg := filepath.Join(dir, "src.img")
	dstImg := filepath.Join(dir, "dst.img")
	journalPath := filepath.Join(dir, "j.bin")
	const sizeMB, memMB = 8, 2

	d, err := openOrCreate(srcImg, sizeMB)
	if err != nil {
		t.Fatal(err)
	}
	blocks := d.NumBlocks()
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < blocks; n++ {
		workload.FillBlock(buf, n, 5)
		d.WriteBlock(n, buf)
	}
	d.Close()

	// Simulate the partial first run: the crashed source's journal owes a
	// tail of blocks, and the destination holds other content everywhere, so
	// a block it ends up sharing with the source is one that travelled.
	dd, err := openOrCreate(dstImg, sizeMB)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < blocks; n++ {
		workload.FillBlock(buf, n, 6)
		dd.WriteBlock(n, buf)
	}
	dd.Close()
	pending := bitmap.New(blocks)
	pending.SetRange(blocks-200, blocks)
	if err := pending.SaveFile(journalPath); err != nil {
		t.Fatal(err)
	}

	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recvDone := make(chan error, 1)
	go func() { recvDone <- recvServe(l, dstImg, sizeMB, memMB, xferOpts{}, "") }()
	opts := xferOpts{journalPath: journalPath}
	if err := runSend(l.Addr().String(), srcImg, sizeMB, memMB, "none", 0, 1, 1, opts, journalPath); err != nil {
		t.Fatalf("cold-resume send: %v", err)
	}
	if err := <-recvDone; err != nil {
		t.Fatalf("recv: %v", err)
	}
	src, err := blockdev.OpenFileDisk(srcImg, blockdev.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := blockdev.OpenFileDisk(dstImg, blockdev.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	a, b := make([]byte, blockdev.BlockSize), make([]byte, blockdev.BlockSize)
	for n := 0; n < blocks; n++ {
		src.ReadBlock(n, a)
		dst.ReadBlock(n, b)
		if bytes.Equal(a, b) != pending.Test(n) {
			t.Fatalf("block %d: shipped %v, owed %v", n, bytes.Equal(a, b), pending.Test(n))
		}
	}
	if _, err := os.Stat(journalPath); !os.IsNotExist(err) {
		t.Fatalf("journal left behind after the resumed run: %v", err)
	}
}

// TestIMOwesGuestWritesBeforeMigration: an incremental migration under a
// workload owes every write the guest makes after the bitmap is loaded,
// including those before the engine's disk pre-copy starts (the dial and
// the handshake): with an empty bitmap between two identical images, only
// the workload's writes travel, and the images still converge.
func TestIMOwesGuestWritesBeforeMigration(t *testing.T) {
	dir := t.TempDir()
	srcImg, dstImg, bmPath := filepath.Join(dir, "src.img"), filepath.Join(dir, "dst.img"), filepath.Join(dir, "fresh.bm")
	const sizeMB, memMB = 8, 2
	for _, p := range []string{srcImg, dstImg} {
		d, err := openOrCreate(p, sizeMB)
		if err != nil {
			t.Fatal(err)
		}
		d.Close()
	}
	if err := bitmap.New(sizeMB << 20 / blockdev.BlockSize).SaveFile(bmPath); err != nil {
		t.Fatal(err)
	}
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recvDone := make(chan error, 1)
	go func() { recvDone <- recvServe(l, dstImg, sizeMB, memMB, xferOpts{}, "") }()
	if err := runSend(l.Addr().String(), srcImg, sizeMB, memMB, "diabolical", 0, 1, 200, xferOpts{}, bmPath); err != nil {
		t.Fatalf("IM send: %v", err)
	}
	if err := <-recvDone; err != nil {
		t.Fatalf("recv: %v", err)
	}
	if same, err := imagesEqual(srcImg, dstImg); err != nil || !same {
		t.Fatalf("images differ after an incremental migration under a workload: %v %v", same, err)
	}
}

// TestJournalRefusesAnotherDisksPendingSet: a cold resume loads the journal
// for its disk. An owed set of another size, or a file in any other format —
// the cursor-and-CRC journal of earlier releases included — is refused
// before the sender dials.
func TestJournalRefusesAnotherDisksPendingSet(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "src.img")
	const sizeMB = 1
	other := filepath.Join(dir, "other.bin")
	if err := bitmap.New(sizeMB << 20 / blockdev.BlockSize * 2).SaveFile(other); err != nil {
		t.Fatal(err)
	}
	if err := runSend("127.0.0.1:1", img, sizeMB, 1, "none", 0, 1, 1, xferOpts{}, other); err == nil || !strings.Contains(err.Error(), "covers") {
		t.Fatalf("another disk's owed set: %v", err)
	}
	// The earlier journal: magic, version, phase, pad, epoch, iteration,
	// token, bitmap length, bitmap, CRC-32.
	old := filepath.Join(dir, "old.journal")
	data := append([]byte("BBJR\x01\x01\x00\x00"), make([]byte, 4+4+16+4+4)...)
	if err := os.WriteFile(old, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSend("127.0.0.1:1", img, sizeMB, 1, "none", 0, 1, 1, xferOpts{}, old); err == nil || !strings.Contains(err.Error(), old) {
		t.Fatalf("an earlier journal: %v", err)
	}
}
