package bitmap

import (
	"math/rand"
	"os"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 1 << 20} {
		b := New(n)
		if b.Len() != n {
			t.Fatalf("Len = %d, want %d", b.Len(), n)
		}
		if b.Count() != 0 {
			t.Fatalf("n=%d: new bitmap has %d bits set", n, b.Count())
		}
		if b.Any() {
			t.Fatalf("n=%d: new bitmap reports Any", n)
		}
	}
}

func TestNewAllSet(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		b := NewAllSet(n)
		if got := b.Count(); got != n {
			t.Fatalf("n=%d: Count = %d", n, got)
		}
		for i := 0; i < n; i++ {
			if !b.Test(i) {
				t.Fatalf("n=%d: bit %d not set", n, i)
			}
		}
	}
}

func TestSetClearTest(t *testing.T) {
	b := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if b.Test(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		b.Clear(i)
		if b.Test(i) {
			t.Fatalf("bit %d still set after Clear", i)
		}
	}
}

func TestSetIdempotent(t *testing.T) {
	b := New(100)
	b.Set(42)
	b.Set(42)
	if b.Count() != 1 {
		t.Fatalf("Count = %d after double Set", b.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(10)
	for name, fn := range map[string]func(){
		"Set-neg":   func() { b.Set(-1) },
		"Set-high":  func() { b.Set(10) },
		"Test-high": func() { b.Test(10) },
		"Clear-neg": func() { b.Clear(-1) },
		"Range-rev": func() { b.SetRange(5, 3) },
		"Range-hi":  func() { b.SetRange(0, 11) },
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
	if func() (p bool) { defer func() { p = recover() != nil }(); New(-1); return }() != true {
		t.Error("New(-1): no panic")
	}
}

func TestSetRange(t *testing.T) {
	cases := []struct{ lo, hi int }{
		{0, 0}, {0, 1}, {0, 64}, {1, 63}, {63, 65}, {64, 128}, {5, 200}, {130, 300},
	}
	for _, c := range cases {
		b := New(300)
		b.SetRange(c.lo, c.hi)
		for i := 0; i < 300; i++ {
			want := i >= c.lo && i < c.hi
			if b.Test(i) != want {
				t.Fatalf("range [%d,%d): bit %d = %v, want %v", c.lo, c.hi, i, b.Test(i), want)
			}
		}
		if b.Count() != c.hi-c.lo {
			t.Fatalf("range [%d,%d): Count = %d", c.lo, c.hi, b.Count())
		}
	}
}

func TestNextSet(t *testing.T) {
	b := New(300)
	for _, i := range []int{3, 64, 100, 299} {
		b.Set(i)
	}
	cases := []struct{ from, want int }{
		{0, 3}, {3, 3}, {4, 64}, {64, 64}, {65, 100}, {101, 299}, {299, 299}, {300, -1}, {-5, 3},
	}
	for _, c := range cases {
		if got := b.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := New(10).NextSet(0); got != -1 {
		t.Errorf("empty NextSet = %d", got)
	}
}

func TestForEachSetOrderAndEarlyStop(t *testing.T) {
	b := New(500)
	want := []int{1, 64, 65, 200, 499}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEachSet(func(i int) bool { got = append(got, i); return true })
	if len(got) != len(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visited %v, want %v", got, want)
		}
	}
	count := 0
	b.ForEachSet(func(i int) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestUnionSubtract(t *testing.T) {
	a, b := New(130), New(130)
	a.Set(1)
	a.Set(100)
	b.Set(100)
	b.Set(129)
	u := a.Clone()
	u.Union(b)
	for _, i := range []int{1, 100, 129} {
		if !u.Test(i) {
			t.Fatalf("union missing %d", i)
		}
	}
	if u.Count() != 3 {
		t.Fatalf("union Count = %d", u.Count())
	}
	s := a.Clone()
	s.Subtract(b)
	if !s.Test(1) || s.Test(100) || s.Count() != 1 {
		t.Fatalf("subtract wrong: %v", s)
	}
}

func TestUnionSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(10).Union(New(11))
}

func TestCloneIndependent(t *testing.T) {
	a := New(64)
	a.Set(5)
	c := a.Clone()
	c.Set(6)
	if a.Test(6) {
		t.Fatal("clone aliases original")
	}
	if !c.Test(5) {
		t.Fatal("clone lost bit")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(7)
	if a.Equal(b) {
		t.Fatal("unequal bitmaps compare equal")
	}
	b.Set(7)
	if !a.Equal(b) {
		t.Fatal("equal bitmaps compare unequal")
	}
	if a.Equal(New(101)) {
		t.Fatal("different lengths compare equal")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 64, 65, 1000} {
		b := New(n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n/3; i++ {
			b.Set(rng.Intn(n))
		}
		data, err := b.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var got Bitmap
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !got.Equal(b) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var b Bitmap
	if err := b.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("short input accepted")
	}
	big, _ := NewAllSet(128).MarshalBinary()
	if err := b.UnmarshalBinary(big[:len(big)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	huge := make([]byte, 16)
	for i := 0; i < 8; i++ {
		huge[i] = 0xff
	}
	if err := b.UnmarshalBinary(huge); err == nil {
		t.Fatal("implausible size accepted")
	}
}

func TestSizeBytesMatchesPaper(t *testing.T) {
	// Paper §IV-A-2: for a 32GB disk a 4KB-block bitmap costs 1MB; a
	// 512B-sector bitmap costs 8MB. Those are a full bitmap's words; the
	// leaf directory adds a 24-byte slice header per 4 KiB leaf, and an
	// empty bitmap is its directory alone.
	const disk = 32 << 30
	for _, c := range []struct{ n, words int }{{disk / 4096, 1 << 20}, {disk / 512, 8 << 20}} {
		dir := 24 * c.words / 4096
		if got := NewAllSet(c.n).SizeBytes(); got != c.words+dir {
			t.Errorf("full %d-bit bitmap = %d bytes, want %d of words + %d of directory", c.n, got, c.words, dir)
		}
		if got := New(c.n).SizeBytes(); got != dir {
			t.Errorf("empty %d-bit bitmap = %d bytes, want its %d-byte directory", c.n, got, dir)
		}
	}
}

// reference is an oracle implementation backed by a map.
type reference map[int]bool

func applyOps(n int, ops []uint32, dense *Bitmap, ref reference) {
	for _, op := range ops {
		i := int(op>>2) % n
		switch op & 3 {
		case 0, 1: // bias toward sets, like a write-dominated trace
			dense.Set(i)
			ref[i] = true
		case 2:
			dense.Clear(i)
			delete(ref, i)
		case 3:
			j := i + int(op%17)
			if j > n {
				j = n
			}
			dense.SetRange(i, j)
			for k := i; k < j; k++ {
				ref[k] = true
			}
		}
	}
}

// TestQuickDenseMatchesReference property-tests Bitmap against a map oracle.
func TestQuickDenseMatchesReference(t *testing.T) {
	f := func(ops []uint32) bool {
		const n = 700
		dense := New(n)
		ref := make(reference)
		applyOps(n, ops, dense, ref)
		if dense.Count() != len(ref) {
			return false
		}
		for i := 0; i < n; i++ {
			if dense.Test(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMarshalRoundTrip property-tests serialization.
func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(idx []uint16, nRaw uint16) bool {
		n := int(nRaw)%2000 + 1
		b := New(n)
		for _, i := range idx {
			b.Set(int(i) % n)
		}
		data, err := b.MarshalBinary()
		if err != nil {
			return false
		}
		var got Bitmap
		if err := got.UnmarshalBinary(data); err != nil {
			return false
		}
		return got.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNextSetConsistent checks NextSet against ForEachSet enumeration.
func TestQuickNextSetConsistent(t *testing.T) {
	f := func(idx []uint16) bool {
		const n = 3000
		b := New(n)
		for _, i := range idx {
			b.Set(int(i) % n)
		}
		var viaForEach []int
		b.ForEachSet(func(i int) bool { viaForEach = append(viaForEach, i); return true })
		var viaNext []int
		for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) {
			viaNext = append(viaNext, i)
		}
		if len(viaForEach) != len(viaNext) {
			return false
		}
		for i := range viaNext {
			if viaNext[i] != viaForEach[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/fresh.bitmap"
	b := New(1000)
	b.SetRange(10, 40)
	b.Set(999)
	if err := b.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(b) {
		t.Fatal("round trip mismatch")
	}
	// overwrite is atomic and replaces contents
	b2 := New(1000)
	b2.Set(1)
	if err := b2.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got2, _ := LoadFile(path)
	if !got2.Equal(b2) {
		t.Fatal("overwrite mismatch")
	}
	if _, err := LoadFile(dir + "/missing"); err == nil {
		t.Fatal("missing file accepted")
	}
	// corrupt file rejected
	os.WriteFile(path, []byte{1, 2, 3}, 0o644)
	if _, err := LoadFile(path); err == nil {
		t.Fatal("corrupt file accepted")
	}
}
