package bcache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"bbmig/internal/blockdev"
)

const testBS = 512 // small blocks keep the property tests fast

// fillBlock writes a deterministic pattern for (block, generation) into buf.
func fillBlock(buf []byte, n, gen int) {
	r := rand.New(rand.NewSource(int64(n)*1e6 + int64(gen)))
	r.Read(buf)
}

func mustFP(t *testing.T, d blockdev.Device) [32]byte {
	t.Helper()
	fp, err := blockdev.Fingerprint(d)
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	return fp
}

// TestCacheMatchesReference drives an identical random op sequence through a
// cached device and a plain MemDisk and demands indistinguishable behavior,
// then flushes and demands the backing file converged too.
func TestCacheMatchesReference(t *testing.T) {
	const blocks = 257 // odd: exercises uneven shard distribution
	backing := blockdev.NewMemDisk(blocks, testBS)
	c := New(backing, 32) // far smaller than the device: constant eviction
	ref := blockdev.NewMemDisk(blocks, testBS)

	r := rand.New(rand.NewSource(42))
	buf := make([]byte, testBS)
	got := make([]byte, testBS)
	want := make([]byte, testBS)
	for i := 0; i < 5000; i++ {
		n := r.Intn(blocks)
		if r.Intn(2) == 0 {
			fillBlock(buf, n, i)
			if err := c.WriteBlock(n, buf); err != nil {
				t.Fatalf("op %d WriteBlock(%d): %v", i, n, err)
			}
			if err := ref.WriteBlock(n, buf); err != nil {
				t.Fatalf("ref WriteBlock: %v", err)
			}
		} else {
			if err := c.ReadBlock(n, got); err != nil {
				t.Fatalf("op %d ReadBlock(%d): %v", i, n, err)
			}
			if err := ref.ReadBlock(n, want); err != nil {
				t.Fatalf("ref ReadBlock: %v", err)
			}
			if string(got) != string(want) {
				t.Fatalf("op %d: block %d diverged from reference", i, n)
			}
		}
	}
	if mustFP(t, c) != mustFP(t, ref) {
		t.Fatal("cached device fingerprint diverged from reference")
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if mustFP(t, backing) != mustFP(t, ref) {
		t.Fatal("backing device did not converge to reference after Flush")
	}
	st := c.Stats()
	if st.Evictions == 0 || st.Writebacks == 0 {
		t.Fatalf("under-capacity run should evict and write back, got %+v", st)
	}
	if st.Dirty != 0 {
		t.Fatalf("dirty blocks after Flush: %+v", st)
	}
}

// TestSnapshotFrozenView proves Snapshot returns a point-in-time device: the
// live volume keeps mutating while every snapshot read sees pre-write bytes.
func TestSnapshotFrozenView(t *testing.T) {
	const blocks = 64
	backing := blockdev.NewMemDisk(blocks, testBS)
	c := New(backing, 16)
	buf := make([]byte, testBS)
	for n := 0; n < blocks; n++ {
		fillBlock(buf, n, 1)
		if err := c.WriteBlock(n, buf); err != nil {
			t.Fatal(err)
		}
	}
	before := mustFP(t, c)

	snap := c.Snapshot()
	for n := 0; n < blocks; n++ { // overwrite every block on the live volume
		fillBlock(buf, n, 2)
		if err := c.WriteBlock(n, buf); err != nil {
			t.Fatal(err)
		}
	}
	if fp := mustFP(t, snap); fp != before {
		t.Fatal("snapshot does not show the point-in-time content")
	}
	if fp := mustFP(t, c); fp == before {
		t.Fatal("live volume should have moved on")
	}
	st := c.Stats()
	if st.CowCopies == 0 {
		t.Fatalf("overwriting a snapshotted volume must CoW, got %+v", st)
	}
	if st.Snapshots != 1 {
		t.Fatalf("Snapshots = %d, want 1", st.Snapshots)
	}
	if err := snap.WriteBlock(0, buf); err != blockdev.ErrSnapshotReadOnly {
		t.Fatalf("snapshot write: got %v, want ErrSnapshotReadOnly", err)
	}

	snap.Release()
	if st := c.Stats(); st.Snapshots != 0 {
		t.Fatalf("Snapshots = %d after Release, want 0", st.Snapshots)
	}
	if err := snap.ReadBlock(0, buf); err == nil {
		t.Fatal("read from released snapshot should fail")
	}
}

// TestTwoSnapshotsShareCopies takes two snapshots at the same point and
// checks one copy-aside serves both, then that a later snapshot sees the
// newer content, not the old copy.
func TestTwoSnapshotsShareCopies(t *testing.T) {
	backing := blockdev.NewMemDisk(8, testBS)
	c := New(backing, 0)
	buf := make([]byte, testBS)
	fillBlock(buf, 0, 1)
	if err := c.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	s1, s2 := c.Snapshot(), c.Snapshot()
	old := mustFP(t, s1)

	fillBlock(buf, 0, 2)
	if err := c.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	s3 := c.Snapshot() // taken after the write: sees generation 2
	fillBlock(buf, 0, 3)
	if err := c.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}

	if mustFP(t, s1) != old || mustFP(t, s2) != old {
		t.Fatal("same-instant snapshots must agree on the old content")
	}
	if fp := mustFP(t, s3); fp == old || fp == mustFP(t, c) {
		t.Fatal("later snapshot must see generation 2, not 1 or 3")
	}
	if st := c.Stats(); st.CowCopies != 2 {
		// One copy serves s1+s2 (gen 1), one serves s3 (gen 2).
		t.Fatalf("CowCopies = %d, want 2 (shared per generation)", st.CowCopies)
	}
	s1.Release()
	s2.Release()
	s3.Release()
}

// TestRefcountLifecycle checks the volume's reference accounting: Release
// is refused while any snapshot is out, succeeds once the last one is
// released, and I/O after it fails with ErrReleased.
func TestRefcountLifecycle(t *testing.T) {
	backing := blockdev.NewMemDisk(8, testBS)
	c := New(backing, 0)
	s1, s2 := c.Snapshot(), c.Snapshot()
	if st := c.Stats(); st.Snapshots != 2 {
		t.Fatalf("Snapshots = %d, want 2", st.Snapshots)
	}
	if err := c.Release(); err == nil {
		t.Fatal("volume Release must refuse while snapshots are out")
	}
	s1.Release()
	if st := c.Stats(); st.Snapshots != 1 {
		t.Fatalf("Snapshots = %d after one of two releases, want 1", st.Snapshots)
	}
	if err := c.Release(); err == nil {
		t.Fatal("volume Release must refuse while one snapshot is still out")
	}
	s2.Release()
	if err := c.Release(); err != nil {
		t.Fatalf("final Release: %v", err)
	}
	if err := c.ReadBlock(0, make([]byte, testBS)); err != ErrReleased {
		t.Fatalf("read after Release: got %v, want ErrReleased", err)
	}
	if err := c.WriteBlock(0, make([]byte, testBS)); err != ErrReleased {
		t.Fatalf("write after Release: got %v, want ErrReleased", err)
	}
}

// TestAllocatedBitmap checks the Allocator view: backing bitmap plus cached
// dirty blocks not yet written back.
func TestAllocatedBitmap(t *testing.T) {
	backing := blockdev.NewMemDisk(32, testBS)
	c := New(backing, 0)
	buf := make([]byte, testBS)
	fillBlock(buf, 7, 1)
	if err := c.WriteBlock(7, buf); err != nil {
		t.Fatal(err)
	}
	bm := c.AllocatedBitmap()
	if !bm.Test(7) {
		t.Fatal("dirty cached block 7 missing from AllocatedBitmap")
	}
	if bm.Count() != 1 {
		t.Fatalf("AllocatedBitmap count = %d, want 1", bm.Count())
	}
}

// TestSnapshotUnderLoad is the -race consistency suite: a writer hammers the
// volume while a reader migrates a snapshot to a destination disk. The
// destination must fingerprint identical to the snapshot — stable across the
// entire copy — and (with overwhelming probability) different from the live
// volume the writer kept mutating.
func TestSnapshotUnderLoad(t *testing.T) {
	const blocks = 128
	backing := blockdev.NewMemDisk(blocks, testBS)
	c := New(backing, 24)
	buf := make([]byte, testBS)
	for n := 0; n < blocks; n++ {
		fillBlock(buf, n, 1)
		if err := c.WriteBlock(n, buf); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			wbuf := make([]byte, testBS)
			for gen := 2; ; gen++ {
				select {
				case <-stop:
					return
				default:
				}
				n := r.Intn(blocks)
				fillBlock(wbuf, n, gen)
				if err := c.WriteBlock(n, wbuf); err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}(int64(w))
	}

	wr := rand.New(rand.NewSource(99))
	for round := 0; round < 4; round++ {
		snap := c.Snapshot()
		fpBefore := mustFP(t, snap)
		dst := blockdev.NewMemDisk(blocks, testBS)
		rbuf := make([]byte, testBS)
		wbuf := make([]byte, testBS)
		for n := 0; n < blocks; n++ {
			if err := snap.ReadBlock(n, rbuf); err != nil {
				t.Fatalf("round %d: snapshot read %d: %v", round, n, err)
			}
			if err := dst.WriteBlock(n, rbuf); err != nil {
				t.Fatal(err)
			}
			// Mutate the live volume mid-copy from this goroutine too, so
			// the copy demonstrably races ahead of and behind live writes
			// even when GOMAXPROCS=1 starves the background writers.
			if n%4 == 0 {
				target := wr.Intn(blocks)
				fillBlock(wbuf, target, 1000+round*blocks+n)
				if err := c.WriteBlock(target, wbuf); err != nil {
					t.Fatal(err)
				}
			}
		}
		fpAfter := mustFP(t, snap)
		snap.Release()
		if fpBefore != fpAfter {
			t.Fatalf("round %d: snapshot fingerprint drifted during the copy", round)
		}
		if mustFP(t, dst) != fpBefore {
			t.Fatalf("round %d: destination differs from the frozen source", round)
		}
	}
	close(stop)
	wg.Wait()

	st := c.Stats()
	if st.CowCopies == 0 {
		t.Fatalf("load test never exercised CoW, got %+v", st)
	}
	if st.Snapshots != 0 {
		t.Fatalf("snapshots leaked: %+v", st)
	}
}

// TestConcurrentMixedOps runs live reads, writes, snapshots, and flushes
// together purely to give the race detector surface area.
func TestConcurrentMixedOps(t *testing.T) {
	const blocks = 96
	backing := blockdev.NewMemDisk(blocks, testBS)
	c := New(backing, 16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			buf := make([]byte, testBS)
			for i := 0; i < 400; i++ {
				n := r.Intn(blocks)
				switch r.Intn(4) {
				case 0:
					fillBlock(buf, n, i)
					if err := c.WriteBlock(n, buf); err != nil {
						t.Errorf("write: %v", err)
					}
				case 1:
					if err := c.ReadBlock(n, buf); err != nil {
						t.Errorf("read: %v", err)
					}
				case 2:
					snap := c.Snapshot()
					if err := snap.ReadBlock(n, buf); err != nil {
						t.Errorf("snap read: %v", err)
					}
					snap.Release()
				case 3:
					if err := c.Flush(); err != nil {
						t.Errorf("flush: %v", err)
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st := c.Stats()
	if st.Snapshots != 0 {
		t.Fatalf("leaked snapshots: %+v", st)
	}
	if err := c.Release(); err != nil {
		t.Fatalf("Release: %v", err)
	}
}

func BenchmarkCacheReadHit(b *testing.B) {
	backing := blockdev.NewMemDisk(1024, blockdev.BlockSize)
	c := New(backing, 2048) // everything fits: pure hit path
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < 1024; n++ {
		_ = c.WriteBlock(n, buf)
	}
	b.SetBytes(blockdev.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ReadBlock(i%1024, buf); err != nil {
			b.Fatal(err)
		}
	}
	if hr := c.Stats().HitRate(); hr < 0.99 {
		b.Fatalf("hit rate %.3f, want ~1", hr)
	}
}

// BenchmarkSnapshotScan measures a full-device scan — the shape of the
// fingerprint and dedup passes — reading a frozen snapshot while a writer
// owns the live path for the whole run.
func BenchmarkSnapshotScan(b *testing.B) {
	const blocks = 2048
	backing := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	c := New(backing, blocks)
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < blocks; n++ {
		if err := c.WriteBlock(n, buf); err != nil {
			b.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(1))
		wbuf := make([]byte, blockdev.BlockSize)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.WriteBlock(r.Intn(blocks), wbuf); err != nil {
				return
			}
		}
	}()
	b.SetBytes(int64(blocks) * blockdev.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := c.Snapshot()
		for n := 0; n < blocks; n++ {
			if err := snap.ReadBlock(n, buf); err != nil {
				b.Fatal(err)
			}
		}
		snap.Release()
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

func ExampleCache() {
	vol := New(blockdev.NewMemDisk(8, 512), 0)
	buf := make([]byte, 512)
	buf[0] = 'a'
	_ = vol.WriteBlock(0, buf)
	snap := vol.Snapshot()
	buf[0] = 'b'
	_ = vol.WriteBlock(0, buf) // CoW: the snapshot keeps 'a'
	_ = snap.ReadBlock(0, buf)
	fmt.Printf("snapshot sees %c\n", buf[0])
	snap.Release()
	_ = vol.Release()
	// Output: snapshot sees a
}

// TestWriteBlockCopiesItsSource pins what lets a migration hand every device
// borrowed content — a dedup stage slot, the process-wide shared zero block:
// WriteBlock takes a copy, so scribbling over the source afterwards changes
// nothing the device holds, and the device never writes through its source.
func TestWriteBlockCopiesItsSource(t *testing.T) {
	file, err := blockdev.CreateFileDisk(t.TempDir()+"/disk.img", 4, testBS)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for name, dev := range map[string]blockdev.Device{
		"MemDisk":  blockdev.NewMemDisk(4, testBS),
		"FileDisk": file,
		"bcache":   New(blockdev.NewMemDisk(4, testBS), 2),
	} {
		src, want, got := make([]byte, testBS), make([]byte, testBS), make([]byte, testBS)
		fillBlock(src, 1, 1)
		copy(want, src)
		if err := dev.WriteBlock(1, src); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(src) != string(want) {
			t.Errorf("%s: WriteBlock modified its source", name)
		}
		for i := range src { // the lender reuses its buffer
			src[i] = 0xEE
		}
		if err := dev.ReadBlock(1, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: block changed with the buffer it was written from", name)
		}
		// Overwriting the block must not land in the first write's source.
		if err := dev.WriteBlock(1, make([]byte, testBS)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, b := range src {
			if b != 0xEE {
				t.Fatalf("%s: a later write reached the first write's source", name)
			}
		}
	}
}
