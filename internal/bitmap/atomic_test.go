package bitmap

import (
	"sync"
	"testing"
)

func TestAtomicBasics(t *testing.T) {
	a := NewAtomic(200)
	if a.Count() != 0 {
		t.Fatal("new Atomic not empty")
	}
	a.Set(0)
	a.Set(64)
	a.Set(199)
	if a.Count() != 3 || !a.Test(0) || !a.Test(64) || !a.Test(199) || a.Test(1) {
		t.Fatal("Set/Test wrong")
	}
}

func TestAtomicOutOfRangePanics(t *testing.T) {
	a := NewAtomic(8)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	a.Set(8)
}

func TestAtomicSnapshotAndLoad(t *testing.T) {
	a := NewAtomic(130)
	a.Set(3)
	a.Set(129)
	snap := a.Snapshot()
	if snap.Count() != 2 || !snap.Test(3) || !snap.Test(129) {
		t.Fatal("snapshot wrong")
	}
	a.Set(64) // snapshot must be independent
	if snap.Test(64) {
		t.Fatal("snapshot aliases atomic bitmap")
	}
}

func TestAtomicSwapOut(t *testing.T) {
	a := NewAtomic(100)
	a.Set(1)
	a.Set(99)
	out := a.SwapOut()
	if out.Count() != 2 || !out.Test(1) || !out.Test(99) {
		t.Fatal("SwapOut contents wrong")
	}
	if a.Count() != 0 {
		t.Fatal("SwapOut did not clear")
	}
}

// TestAtomicConcurrentNoLostBits is the core safety property of the
// blkback/blkd split: bits set concurrently with iterating SwapOut calls must
// appear in exactly one snapshot or remain in the live bitmap — never vanish.
func TestAtomicConcurrentNoLostBits(t *testing.T) {
	const n = 1 << 16
	const writers = 8
	const perWriter = n / writers
	a := NewAtomic(n)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * perWriter; i < (w+1)*perWriter; i++ {
				a.Set(i)
			}
		}(w)
	}
	merged := New(n)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		merged.Union(a.SwapOut())
		select {
		case <-done:
			merged.Union(a.SwapOut())
			if got := merged.Count(); got != n {
				t.Errorf("lost bits: merged %d of %d", got, n)
			}
			return
		default:
		}
	}
}

// TestAtomicConcurrentSetRange has sixteen writers set the same half of
// every word at once: overlapping word-level ORs must neither lose a bit nor
// set one outside the ranges.
func TestAtomicConcurrentSetRange(t *testing.T) {
	const n = 4096
	a := NewAtomic(n)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i += 64 {
				for j := i; j < i+32; j++ {
					a.Set(j)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := a.Count(); got != n/2 {
		t.Fatalf("Count = %d, want %d", got, n/2)
	}
}

func TestAtomicPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad-new": func() { NewAtomic(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
