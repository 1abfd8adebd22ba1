package blkback

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/workload"
)

// TestGateScatterRace races a destination scatter-writer pool (concurrent
// ReceiveBlock calls, as the parallel transfer pipeline produces) against
// the resumed guest's reads and writes through the gate. Run under -race.
// Invariants checked: no deadlock, full synchronization, and every block
// ends with either the guest's write (local write supersedes a push) or the
// pushed source copy — never a stale mix.
func TestGateScatterRace(t *testing.T) {
	const blocks = 2048
	const scatterWorkers = 4
	const guestWriters = 2
	const guestReaders = 2

	dev := blockdev.NewMemDisk(blocks, blockdev.BlockSize)
	transferred := bitmap.NewAllSet(blocks)
	gate := NewPostCopyGate(dev, 1, transferred, func(int) error { return nil })

	pushData := func(n int, buf []byte) { workload.FillBlock(buf, n, 1) }
	guestData := func(n int, buf []byte) { workload.FillBlock(buf, n+1_000_000, 7) }

	var writtenMu sync.Mutex
	written := make(map[int]bool)

	var wg sync.WaitGroup
	// Scatter pool: every block arrives exactly once, striped across workers
	// in arbitrary interleaving.
	for w := 0; w < scatterWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, blockdev.BlockSize)
			for n := w; n < blocks; n += scatterWorkers {
				pushData(n, buf)
				if err := gate.ReceiveBlock(n, buf); err != nil {
					t.Errorf("receive %d: %v", n, err)
					return
				}
			}
		}(w)
	}
	// Guest writers: local writes racing the pushes.
	for g := 0; g < guestWriters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			buf := make([]byte, blockdev.BlockSize)
			for i := 0; i < 400; i++ {
				n := rng.Intn(blocks)
				guestData(n, buf)
				writtenMu.Lock()
				written[n] = true
				writtenMu.Unlock()
				if err := gate.Submit(blockdev.Request{Op: blockdev.Write, Block: n, Domain: 1, Data: buf}); err != nil {
					t.Errorf("write %d: %v", n, err)
					return
				}
			}
		}(g)
	}
	// Guest readers: reads of still-dirty blocks must stall until released
	// by the racing scatter (or by a local write), then observe valid data.
	for g := 0; g < guestReaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			buf := make([]byte, blockdev.BlockSize)
			wantPush := make([]byte, blockdev.BlockSize)
			wantLocal := make([]byte, blockdev.BlockSize)
			for i := 0; i < 400; i++ {
				n := rng.Intn(blocks)
				if err := gate.Submit(blockdev.Request{Op: blockdev.Read, Block: n, Domain: 1, Data: buf}); err != nil {
					t.Errorf("read %d: %v", n, err)
					return
				}
				pushData(n, wantPush)
				guestData(n, wantLocal)
				if !bytes.Equal(buf, wantPush) && !bytes.Equal(buf, wantLocal) {
					t.Errorf("read of block %d observed torn or stale data", n)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if !gate.Synchronized() {
		t.Fatalf("gate not synchronized: %d blocks remain", gate.RemainingDirty())
	}
	// Final contents: guest-written blocks hold the local data (the write
	// cleared the transferred bit, so the later push was dropped as stale);
	// all others hold the pushed copy.
	buf := make([]byte, blockdev.BlockSize)
	want := make([]byte, blockdev.BlockSize)
	for n := 0; n < blocks; n++ {
		if err := dev.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if written[n] {
			guestData(n, want)
		} else {
			pushData(n, want)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("block %d: wrong final contents (guest-written=%v)", n, written[n])
		}
	}
	st := gate.Stats()
	if st.StalePushes == 0 && len(written) > 0 {
		t.Log("note: no stale pushes observed this run (scheduling-dependent)")
	}
	fresh := gate.FreshBitmap()
	for n := range written {
		if !fresh.Test(n) {
			t.Fatalf("guest write to %d missing from fresh bitmap", n)
		}
	}
}
