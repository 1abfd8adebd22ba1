package bitmap

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

// flat is the reference model the leaves are held to: one array of words
// over the whole bitmap, the layout a Bitmap had before it had leaves.
type flat struct {
	words []uint64
	n     int
}

func newFlat(n int) *flat { return &flat{make([]uint64, (n+63)/64), n} }

func (f *flat) test(i int) bool { return f.words[i/64]&(1<<uint(i%64)) != 0 }

func (f *flat) put(lo, hi int, set bool) {
	for i := lo; i < hi; i++ {
		if set {
			f.words[i/64] |= 1 << uint(i%64)
		} else {
			f.words[i/64] &^= 1 << uint(i%64)
		}
	}
}

func (f *flat) count() int {
	c := 0
	for _, w := range f.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// next is the first i >= from whose bit is want, or n.
func (f *flat) next(from int, want bool) int {
	for from < f.n && f.test(from) != want {
		from++
	}
	return from
}

// encode is the model's own MarshalBinary: the flat words, or the runs form
// when that is strictly shorter (WIRE.md §4).
func (f *flat) encode() []byte {
	dense := binary.LittleEndian.AppendUint64(nil, uint64(f.n))
	for _, w := range f.words {
		dense = binary.LittleEndian.AppendUint64(dense, w)
	}
	runs := binary.LittleEndian.AppendUint64(nil, uint64(f.n)|1<<56)
	for prev, i := 0, f.next(0, true); i < f.n; i = f.next(i, true) {
		j := f.next(i, false)
		runs = binary.AppendUvarint(binary.AppendUvarint(runs, uint64(i-prev)), uint64(j-i))
		prev, i = j, j
	}
	if len(runs) < len(dense) {
		return runs
	}
	return dense
}

// boundaryIndex picks a bit near a leaf boundary, a word boundary or the
// tail most of the time, anywhere otherwise.
func boundaryIndex(rng *rand.Rand, n int) int {
	var i int
	switch rng.Intn(4) {
	case 0:
		i = rng.Intn(n/leafBits+2)*leafBits + rng.Intn(140) - 70
	case 1:
		i = n - 1 - rng.Intn(130)
	case 2:
		i = rng.Intn(n/64+1)*64 + rng.Intn(3) - 1
	default:
		i = rng.Intn(n)
	}
	return min(max(i, 0), n-1)
}

// sparseOther is a bitmap of n bits with a few bits and a run or two set
// near leaf boundaries, and its model.
func sparseOther(rng *rand.Rand, n int) (*Bitmap, *flat) {
	b, f := New(n), newFlat(n)
	for k := rng.Intn(8); k > 0; k-- {
		lo := boundaryIndex(rng, n)
		hi := min(lo+1+rng.Intn(200)*rng.Intn(2), n)
		b.SetRange(lo, hi)
		f.put(lo, hi, true)
	}
	return b, f
}

// checkAgainst holds b to its model: counts, scans from random starts, the
// full walk, the encoding byte for byte, and Equal both ways with a copy
// that has an allocated all-clear leaf where b may have none.
func checkAgainst(t *testing.T, rng *rand.Rand, b *Bitmap, f *flat) {
	t.Helper()
	if b.Count() != f.count() || b.Any() != (f.count() > 0) {
		t.Fatalf("n=%d: count %d any %v, model %d", f.n, b.Count(), b.Any(), f.count())
	}
	for probe := 0; probe < 8; probe++ {
		i := boundaryIndex(rng, f.n)
		want := f.next(i, true)
		if want == f.n {
			want = -1
		}
		if got := b.NextSet(i); got != want {
			t.Fatalf("n=%d: NextSet(%d) = %d, model %d", f.n, i, got, want)
		}
		if want >= 0 {
			end := f.next(want, false)
			if e := b.NextExtent(i, 0); e != (Extent{want, end - want}) {
				t.Fatalf("n=%d: NextExtent(%d) = %v, model [%d,%d)", f.n, i, e, want, end)
			}
		}
		hi := min(i+1+rng.Intn(3*wordBits), f.n)
		if got, want := b.AnyIn(i, hi), f.next(i, true) < hi; got != want {
			t.Fatalf("n=%d: AnyIn(%d,%d) = %v, model %v", f.n, i, hi, got, want)
		}
	}
	var walked []int
	b.ForEachSet(func(i int) bool { walked = append(walked, i); return true })
	for k, i := 0, f.next(0, true); i < f.n; k, i = k+1, f.next(i+1, true) {
		if k >= len(walked) || walked[k] != i {
			t.Fatalf("n=%d: ForEachSet diverges from the model at its %d-th bit %d", f.n, k, i)
		}
	}
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if want := f.encode(); !bytes.Equal(data, want) {
		t.Fatalf("n=%d: MarshalBinary %d bytes differs from the model's %d", f.n, len(data), len(want))
	}
	if b.EncodedLen() != len(data) {
		t.Fatalf("n=%d: EncodedLen %d, marshalled %d", f.n, b.EncodedLen(), len(data))
	}
	c := b.Clone()
	for k := range c.leaves {
		c.leaf(k) // every leaf allocated, all-clear ones included
	}
	if !b.Equal(c) || !c.Equal(b) {
		t.Fatalf("n=%d: Equal depends on which leaves are allocated", f.n)
	}
	if f.count() > 0 {
		c.Clear(f.next(0, true))
		if b.Equal(c) || c.Equal(b) {
			t.Fatalf("n=%d: Equal missed a cleared bit", f.n)
		}
	}
}

// TestLeavesMatchFlatModel drives random operations across leaf, word and
// tail boundaries through a Bitmap and through the flat model side by side,
// and holds every read and the encoding to the model after each one.
func TestLeavesMatchFlatModel(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{1, 63, 64, 65, 700, leafBits - 1, leafBits, leafBits + 1, 2*leafBits + 64, 3*leafBits + 77} {
		b, f := New(n), newFlat(n)
		for op := 0; op < 120; op++ {
			i := boundaryIndex(rng, n)
			hi := min(i+1+rng.Intn(leafBits/4)*rng.Intn(2), n)
			switch rng.Intn(11) {
			case 0, 1:
				b.Set(i)
				f.put(i, i+1, true)
			case 2:
				b.Clear(i)
				f.put(i, i+1, false)
			case 3, 4:
				b.SetRange(i, hi)
				f.put(i, hi, true)
			case 5:
				b.ClearRange(i, hi)
				f.put(i, hi, false)
			case 6:
				o, of := sparseOther(rng, n)
				b.Union(o)
				for w := range f.words {
					f.words[w] |= of.words[w]
				}
			case 7:
				o, of := sparseOther(rng, n)
				b.Subtract(o)
				for w := range f.words {
					f.words[w] &^= of.words[w]
				}
			case 8:
				b = b.Clone()
			case 9:
				data, _ := b.MarshalBinary()
				var err error
				if b, err = UnmarshalSized(data, n); err != nil {
					t.Fatal(err)
				}
			case 10:
				if rng.Intn(6) == 0 {
					b.Reset()
					clear(f.words)
				}
			}
			checkAgainst(t, rng, b, f)
		}
		full := NewAllSet(n)
		f.put(0, n, true)
		checkAgainst(t, rng, full, f)
	}
}

// TestLeavesCostTheirFootprint: an empty or sparse bitmap holds only the
// leaves its bits fall in, a short one exactly its own words, and a full one
// the flat words plus the directory.
func TestLeavesCostTheirFootprint(t *testing.T) {
	const paper = 10_001_920 // the paper's 39 070 MB disk
	leaves := (paper + leafBits - 1) / leafBits
	dir, flatBytes := 24*leaves, 8*((paper+63)/64)
	if got := New(paper).SizeBytes(); got != dir || got > flatBytes/100 {
		t.Errorf("empty paper bitmap holds %d bytes, want its %d-byte directory", got, dir)
	}
	sparse := New(paper)
	sparse.Set(5)
	sparse.Set(3*leafBits + 9)
	sparse.Set(paper - 1) // the short last leaf
	if got, want := sparse.SizeBytes(), dir+2*8*leafWords+8*leafLen(paper, leaves-1); got != want {
		t.Errorf("three leaves touched: %d bytes, want %d", got, want)
	}
	if got := NewAllSet(16384).SizeBytes(); got != 16384/8+24 {
		t.Errorf("a 16 384-bit bitmap holds %d bytes, want 2 KiB and one directory entry", got)
	}
	if got := NewAllSet(paper).SizeBytes(); got != flatBytes+dir {
		t.Errorf("full paper bitmap holds %d bytes, want %d", got, flatBytes+dir)
	}
	a := NewAtomic(paper)
	a.Set(paper - 1)
	if got := a.SwapOut().SizeBytes(); got != dir+8*leafLen(paper, leaves-1) {
		t.Errorf("a one-bit SwapOut holds %d bytes", got)
	}
}

// TestAtomicFreshLeavesNoLostBits: writers set bits while a reader loops
// SwapOut. Every writer starts on leaves nobody has touched, all at once,
// so first writes race to publish the same leaf, then keep writing into
// leaves the reader is swapping out. The union of everything swapped out
// and what is left must be exactly every bit set. Two shapes: bits spread
// over many leaves, and packed into the first words of a few, which the
// reader reaches right after it reaches their leaf.
func TestAtomicFreshLeavesNoLostBits(t *testing.T) {
	const writers, perLeaf = 4, 64
	for _, shape := range []struct{ leaves, stride int }{{24, 97}, {4, 1}} {
		n := shape.leaves * leafBits
		bit := func(k, j int) int { return k*leafBits + j*shape.stride }
		for round := 0; round < 100; round++ {
			a := NewAtomic(n)
			want := New(n)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					<-start
					for j := 0; j < perLeaf; j++ {
						for k := 0; k < shape.leaves; k++ {
							a.Set(bit(k, j*writers+w))
						}
					}
				}(w)
			}
			for j := 0; j < perLeaf*writers; j++ {
				for k := 0; k < shape.leaves; k++ {
					want.Set(bit(k, j))
				}
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			got := New(n)
			close(start)
			for finished := false; !finished; {
				select {
				case <-done:
					finished = true
				default:
				}
				got.Union(a.SwapOut())
			}
			got.Union(a.Snapshot())
			if !got.Equal(want) {
				t.Fatalf("%d leaves, stride %d, round %d: swapped out and left %d bits, set %d",
					shape.leaves, shape.stride, round, got.Count(), want.Count())
			}
		}
	}
}

// TestDenseDecodeDropsBitsPastLen: a dense payload whose last word has bits
// set past the bit count decodes to exactly the bits inside it.
func TestDenseDecodeDropsBitsPastLen(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, leafBits + 5} {
		words := (n + 63) / 64
		data := binary.LittleEndian.AppendUint64(nil, uint64(n))
		for i := 0; i < words; i++ {
			data = binary.LittleEndian.AppendUint64(data, ^uint64(0))
		}
		b, err := UnmarshalSized(data, n)
		if err != nil {
			t.Fatal(err)
		}
		if b.Count() != n || !b.Equal(NewAllSet(n)) {
			t.Errorf("n=%d: decoded %d bits", n, b.Count())
		}
	}
}
