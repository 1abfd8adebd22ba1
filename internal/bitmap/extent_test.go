package bitmap

import (
	"math/rand"
	"testing"
)

// collectExtents runs ForEachExtent and returns the visited extents.
func collectExtents(b *Bitmap, max int) []Extent {
	var out []Extent
	b.ForEachExtent(max, func(e Extent) bool {
		out = append(out, e)
		return true
	})
	return out
}

// checkExtentProperties asserts the extent iteration invariants against the
// ground truth of ForEachSet: the extents visit exactly the set bits, in
// ascending order, never exceeding max, and never spanning a clear bit.
func checkExtentProperties(t *testing.T, b *Bitmap, max int) {
	t.Helper()
	var fromSets []int
	b.ForEachSet(func(i int) bool { fromSets = append(fromSets, i); return true })

	var fromExtents []int
	prevEnd := -1
	for _, e := range collectExtents(b, max) {
		if e.Count < 1 {
			t.Fatalf("max=%d: empty extent %v", max, e)
		}
		if max > 0 && e.Count > max {
			t.Fatalf("max=%d: extent %v exceeds max", max, e)
		}
		if e.Start < prevEnd {
			t.Fatalf("max=%d: extent %v out of order (prev end %d)", max, e, prevEnd)
		}
		prevEnd = e.End()
		for i := e.Start; i < e.End(); i++ {
			if !b.Test(i) {
				t.Fatalf("max=%d: extent %v covers clear bit %d", max, e, i)
			}
			fromExtents = append(fromExtents, i)
		}
	}
	if len(fromExtents) != len(fromSets) {
		t.Fatalf("max=%d: extents visit %d bits, ForEachSet %d", max, len(fromExtents), len(fromSets))
	}
	for i := range fromSets {
		if fromExtents[i] != fromSets[i] {
			t.Fatalf("max=%d: bit %d visited as %d, want %d", max, i, fromExtents[i], fromSets[i])
		}
	}
}

func TestExtentsKnownPatterns(t *testing.T) {
	b := New(300)
	for _, i := range []int{0, 1, 2, 63, 64, 65, 130, 299} {
		b.Set(i)
	}
	got := collectExtents(b, 0)
	want := []Extent{{0, 3}, {63, 3}, {130, 1}, {299, 1}}
	if len(got) != len(want) {
		t.Fatalf("extents %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("extent %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Splitting: the run of 3 at 63 becomes [63,2)+[65,1) under max=2.
	got = collectExtents(b, 2)
	want = []Extent{{0, 2}, {2, 1}, {63, 2}, {65, 1}, {130, 1}, {299, 1}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("max=2 extent %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestExtentsEdgeCases(t *testing.T) {
	if got := collectExtents(New(0), 4); len(got) != 0 {
		t.Fatalf("empty bitmap yielded %v", got)
	}
	if got := collectExtents(New(100), 4); len(got) != 0 {
		t.Fatalf("all-clear bitmap yielded %v", got)
	}
	full := NewAllSet(130)
	checkExtentProperties(t, full, 0)
	checkExtentProperties(t, full, 1)
	checkExtentProperties(t, full, 64)
	if got := collectExtents(full, 0); len(got) != 1 || got[0] != (Extent{0, 130}) {
		t.Fatalf("all-set unsplit extents = %v", got)
	}
	// Early stop.
	n := 0
	full.ForEachExtent(7, func(Extent) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d extents", n)
	}
}

func TestExtentsRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		size := 1 + rng.Intn(1000)
		b := New(size)
		// Mix single bits and runs so word boundaries get crossed often.
		for k := rng.Intn(30); k > 0; k-- {
			if rng.Intn(2) == 0 {
				b.Set(rng.Intn(size))
			} else {
				lo := rng.Intn(size)
				hi := lo + 1 + rng.Intn(size-lo)
				b.SetRange(lo, hi)
			}
		}
		for _, max := range []int{0, 1, 2, 3, 63, 64, 65, size + 10} {
			checkExtentProperties(t, b, max)
		}
	}
}

func TestNextClear(t *testing.T) {
	b := New(200)
	b.SetRange(0, 200)
	if got := b.nextClear(0); got != 200 {
		t.Fatalf("nextClear on all-set = %d, want 200", got)
	}
	b.Clear(77)
	if got := b.nextClear(0); got != 77 {
		t.Fatalf("nextClear = %d, want 77", got)
	}
	if got := b.nextClear(78); got != 200 {
		t.Fatalf("nextClear(78) = %d, want 200", got)
	}
	// Tail handling: the final partial word's unused bits must not read as
	// set or clear positions beyond Len.
	c := NewAllSet(70)
	if got := c.nextClear(0); got != 70 {
		t.Fatalf("nextClear beyond tail = %d, want 70", got)
	}
}

func TestNextExtent(t *testing.T) {
	b := New(100)
	b.SetRange(10, 20)
	b.Set(50)
	if got := b.NextExtent(0, 0); got != (Extent{10, 10}) {
		t.Fatalf("NextExtent = %v", got)
	}
	if got := b.NextExtent(0, 4); got != (Extent{10, 4}) {
		t.Fatalf("clipped NextExtent = %v", got)
	}
	if got := b.NextExtent(21, 0); got != (Extent{50, 1}) {
		t.Fatalf("NextExtent after run = %v", got)
	}
	if got := b.NextExtent(51, 0); got.Count != 0 {
		t.Fatalf("NextExtent past last = %v", got)
	}
}

func TestClearRange(t *testing.T) {
	b := NewAllSet(300)
	b.ClearRange(10, 200)
	for i := 0; i < 300; i++ {
		want := i < 10 || i >= 200
		if b.Test(i) != want {
			t.Fatalf("bit %d = %v after ClearRange", i, b.Test(i))
		}
	}
	b.ClearRange(0, 0) // empty range is a no-op
	if b.Count() != 10+100 {
		t.Fatalf("count %d", b.Count())
	}
}

// FuzzExtents feeds arbitrary bitmap contents and max values through the
// extent iterator and checks the coverage invariants.
func FuzzExtents(f *testing.F) {
	f.Add([]byte{0xFF, 0x00, 0xAA}, 3, uint8(4))
	f.Add([]byte{}, 1, uint8(1))
	f.Add([]byte{0x01}, 8, uint8(0))
	f.Fuzz(func(t *testing.T, words []byte, extra int, max uint8) {
		size := len(words)*8 + abs(extra)%9
		if size > 1<<16 {
			size = 1 << 16
		}
		b := New(size)
		for i := 0; i < size; i++ {
			if i/8 < len(words) && words[i/8]&(1<<(i%8)) != 0 {
				b.Set(i)
			}
		}
		checkExtentProperties(t, b, int(max))
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// maskedWalk drives NextExtentExcluding from start to the end of the bitmap,
// calling mutate (if any) before each step, and checks every step against
// the definition: the extent is NextExtent of `b &^ live` as live stands at
// that step, and excluded counts b's bits in the gap that live holds.
func maskedWalk(t *testing.T, b *Bitmap, live *Atomic, start, max int, mutate func()) []Extent {
	t.Helper()
	var got []Extent
	for pos := start; ; {
		if mutate != nil {
			mutate()
		}
		held := live.Snapshot()
		ref := b.Clone()
		ref.Subtract(held)
		want := ref.NextExtent(pos, max)
		ext, excluded := b.NextExtentExcluding(live.View(), pos, max)
		if ext != want {
			t.Fatalf("pos=%d max=%d: extent %v, want %v", pos, max, ext, want)
		}
		gapEnd := ext.Start
		if ext.Count == 0 {
			gapEnd = b.Len()
		}
		wantExcluded := 0
		for i := pos; i < gapEnd; i++ {
			if b.Test(i) {
				if !held.Test(i) {
					t.Fatalf("pos=%d: bit %d is owed and not held, yet the scan passed it", pos, i)
				}
				wantExcluded++
			}
		}
		if excluded != wantExcluded {
			t.Fatalf("pos=%d max=%d: excluded %d, want %d", pos, max, excluded, wantExcluded)
		}
		if ext.Count == 0 {
			return got
		}
		got = append(got, ext)
		pos = ext.End()
	}
}

// atomicRange returns a setter of bits [lo, hi) of a.
func atomicRange(a *Atomic) func(lo, hi int) {
	return func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a.Set(i)
		}
	}
}

// TestNextExtentExcludingMatchesSubtract is the masked scan's property test:
// over random owed sets, live sets, extent limits and start positions it
// yields exactly the extents of toSend.Clone().Subtract(live.Snapshot()),
// also when live gains bits between calls (the racing guest).
func TestNextExtentExcludingMatchesSubtract(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	fill := func(n int, density float64, set func(lo, hi int)) {
		for i := 0; i < n; {
			run := 1 + rng.Intn(200)
			if i+run > n {
				run = n - i
			}
			if rng.Float64() < density {
				set(i, i+run)
			}
			i += run
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := []int{1, 63, 64, 65, 128, 129, 1000, 4096}[rng.Intn(8)]
		b := New(n)
		live := NewAtomic(n)
		fill(n, []float64{0.1, 0.5, 1}[rng.Intn(3)], b.SetRange)
		fill(n, []float64{0, 0.1, 0.5, 1}[rng.Intn(4)], atomicRange(live))
		max := []int{0, 1, 7, 64, 100}[rng.Intn(5)]
		start := rng.Intn(n + 1)
		var mutate func()
		if trial%2 == 1 {
			mutate = func() { live.Set(rng.Intn(n)) }
		}
		maskedWalk(t, b, live, start, max, mutate)

		// A zero View excludes nothing: the scan is NextExtent.
		for pos := start; ; {
			want := b.NextExtent(pos, max)
			ext, excluded := b.NextExtentExcluding(View{}, pos, max)
			if ext != want || excluded != 0 {
				t.Fatalf("zero view: %v excluded %d, want %v excluded 0", ext, excluded, want)
			}
			if ext.Count == 0 {
				break
			}
			pos = ext.End()
		}
	}
}

func TestNextExtentExcludingCutsAtRedirtied(t *testing.T) {
	b := NewAllSet(200)
	live := NewAtomic(200)
	live.Set(70)
	atomicRange(live)(130, 135)
	got := maskedWalk(t, b, live, 0, 0, nil)
	want := []Extent{{0, 70}, {71, 59}, {135, 65}}
	if len(got) != len(want) {
		t.Fatalf("extents %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("extents %v, want %v", got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	b.NextExtentExcluding(NewAtomic(199).View(), 0, 0)
}

// TestViewTest: a view reads single bits of the live tracker; the zero View
// holds nothing.
func TestViewTest(t *testing.T) {
	a := NewAtomic(130)
	a.Set(129)
	if v := a.View(); !v.Test(129) || v.Test(128) {
		t.Fatal("view disagrees with its tracker")
	}
	if (View{}).Test(129) {
		t.Fatal("zero view holds a bit")
	}
}

// FuzzNextExtentExcluding feeds arbitrary word patterns through the same
// check as the property test.
func FuzzNextExtentExcluding(f *testing.F) {
	f.Add([]byte{0xff, 0x0f, 0xf0}, []byte{0x10, 0xff}, uint8(3), uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, []byte{0, 0, 0, 0, 0, 0, 0, 0x80}, uint8(0), uint8(5))
	f.Fuzz(func(t *testing.T, owed, held []byte, max, start uint8) {
		n := 8 * len(owed)
		if n == 0 {
			return
		}
		b := New(n)
		live := NewAtomic(n)
		for i := 0; i < n; i++ {
			if owed[i/8]&(1<<(i%8)) != 0 {
				b.Set(i)
			}
			if i/8 < len(held) && held[i/8]&(1<<(i%8)) != 0 {
				live.Set(i)
			}
		}
		maskedWalk(t, b, live, int(start)%(n+1), int(max), nil)
	})
}
