package dedup

import (
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"testing"

	"bbmig/internal/blockdev"
	"bbmig/internal/blockdev/bcache"
)

// The tests in this file prove Memo's one promise: the fingerprint it
// returns is Of the bytes passed, whatever the device did since, and it
// skips a hash only for a scan of a registered blockdev.Stamped device.

// memoPool returns n block contents in pairs that differ only in their first
// byte, outside the memo's sample: the two of a pair share a key.
func memoPool(n int) [][]byte {
	pool := make([][]byte, n)
	for i := range pool {
		pool[i] = make([]byte, blockdev.BlockSize)
		for j := range pool[i] {
			pool[i][j] = byte(j) ^ byte(i/2+1)
		}
		pool[i][0] = 0x80 + byte(i)
	}
	return pool
}

// TestMemoServesOnlyFingerprintOfBytesPassed is the property: blocks drawn
// from a small pool of contents are rewritten at random between calls, and
// by a writer racing the calls, while the memo is asked with the stamp read
// with the bytes (a scan), with none (the source), and with bytes gone stale
// before the call. Every answer is Of the bytes passed.
func TestMemoServesOnlyFingerprintOfBytesPassed(t *testing.T) {
	const blocks = 2 * blockdev.RunBlocks // two stamps: the writer rewrites only the second
	pool := memoPool(8)
	disk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	for n := range blocks {
		disk.WriteBlock(n, pool[n%len(pool)])
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewPCG(2, 45))
		for {
			select {
			case <-stop:
				return
			default:
			}
			disk.WriteBlock(blockdev.RunBlocks+rng.IntN(blockdev.RunBlocks), pool[rng.IntN(len(pool))])
			runtime.Gosched()
		}
	}()
	defer func() { close(stop); <-done }()
	rng := rand.New(rand.NewPCG(1, 45))
	m := Memo{Dev: disk}
	buf := make([]byte, blockdev.BlockSize)
	for i := range 20000 {
		n := rng.IntN(blocks)
		stamp, err := disk.ReadStamped(n, buf)
		if err != nil {
			t.Fatal(err)
		}
		switch rng.IntN(8) {
		case 0, 1, 2:
			stamp = 0
		case 3: // the bytes and their stamp go stale together
			disk.WriteBlock(n, pool[rng.IntN(len(pool))])
		case 4: // the bytes go stale, unstamped
			disk.WriteBlock(n, pool[rng.IntN(len(pool))])
			stamp = 0
		}
		if fp := m.Of(n, buf, stamp); fp != Of(buf) {
			t.Fatalf("call %d, block %d: the memo answered %x, the bytes passed hash to %x", i, n, fp, Of(buf))
		}
	}
	if m.Hashes == 20000 {
		t.Fatal("no fingerprint was reused: the test proved nothing")
	}
}

// TestMemoRewriteUnderSampleHashed proves the stamp check: block A is
// memoized, then rewritten so that its sample is unchanged but its bytes
// differ, and block B holds A's new bytes. B is hashed; A's old fingerprint,
// which A's current bytes would pass a byte comparison for, is not served.
func TestMemoRewriteUnderSampleHashed(t *testing.T) {
	pool := memoPool(2)
	disk := blockdev.NewMemDisk(2*blockdev.RunBlocks, blockdev.BlockSize)
	a, b := 0, blockdev.RunBlocks
	disk.WriteBlock(a, pool[0])
	m := Memo{Dev: disk}
	if m.Of(a, pool[0], 0); m.Hashes != 1 {
		t.Fatal("the first block was not hashed")
	}
	disk.WriteBlock(a, pool[1])
	disk.WriteBlock(b, pool[1])
	stamp, _ := disk.ReadStamped(b, make([]byte, blockdev.BlockSize))
	if fp := m.Of(b, pool[1], stamp); m.Hashes != 2 || fp != Of(pool[1]) {
		t.Errorf("B got %x after %d hashes, want %x hashed", fp, m.Hashes, Of(pool[1]))
	}
}

// TestMemoSampleCollisionHashed proves two unchanged blocks that share a key
// but not their bytes are each hashed: a collision costs a comparison, never
// a wrong fingerprint.
func TestMemoSampleCollisionHashed(t *testing.T) {
	pool := memoPool(2)
	disk := blockdev.NewMemDisk(2, blockdev.BlockSize)
	disk.WriteBlock(0, pool[0])
	disk.WriteBlock(1, pool[1])
	m := Memo{Dev: disk}
	for n := range 2 {
		if fp := m.Of(n, pool[n], 0); m.Hashes != int64(n+1) || fp != Of(pool[n]) {
			t.Errorf("block %d got %x after %d hashes, want %x hashed", n, fp, m.Hashes, Of(pool[n]))
		}
	}
}

// TestScanMemoOnlyOnStampedDevice proves a scan reuses fingerprints only when
// it reads a registered blockdev.Stamped device itself: eight blocks of two
// contents hash twice on a MemDisk, and all eight, as every scan did before
// the memo, on a FileDisk, a bcache volume and a view of the MemDisk.
func TestScanMemoOnlyOnStampedDevice(t *testing.T) {
	const blocks = 8
	pool := memoPool(4)
	pool = [][]byte{pool[0], pool[2]} // two contents that do not share a key
	disk := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	file, err := blockdev.CreateFileDisk(filepath.Join(t.TempDir(), "d.img"), blocks, blockdev.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for n := range blocks {
		disk.WriteBlock(n, pool[n%2])
		if err := file.WriteBlock(n, pool[n%2]); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		dev  BlockReader
		view BlockReader // what the scan reads; nil: dev
		want Stats
	}{
		{"memdisk", disk, nil, Stats{Hashes: 2, Reused: 6}},
		{"filedisk", file, nil, Stats{Hashes: blocks}},
		{"bcache volume", bcache.New(disk, 0), nil, Stats{Hashes: blocks}},
		{"view", disk, readerView{disk}, Stats{Hashes: blocks}},
	} {
		ix := NewIndex(blockdev.BlockSize)
		if err := ix.RegisterSource("d", tc.dev); err != nil {
			t.Fatal(err)
		}
		view := tc.view
		if view == nil {
			view = tc.dev
		}
		if n, err := ix.ScanReader("d", view); err != nil || n != blocks {
			t.Fatalf("%s: scan indexed %d blocks, %v", tc.name, n, err)
		}
		if s := ix.Stats(); s != tc.want {
			t.Errorf("%s: scan stats %+v, want %+v", tc.name, s, tc.want)
		}
	}
}
