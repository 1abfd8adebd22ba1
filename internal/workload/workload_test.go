package workload

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"bbmig/internal/blockdev"
)

const testDiskBlocks = 1 << 20 // "4 GiB" disk for generator tests

func kinds() []Kind { return []Kind{Web, Stream, Diabolic, Kernel} }

func TestGeneratorsDeterministic(t *testing.T) {
	for _, k := range kinds() {
		g1 := New(k, testDiskBlocks, 42)
		g2 := New(k, testDiskBlocks, 42)
		for i := 0; i < 5000; i++ {
			a, b := g1.Next(), g2.Next()
			if a != b {
				t.Fatalf("%v: event %d differs: %+v vs %+v", k, i, a, b)
			}
		}
	}
}

func TestGeneratorsResetReproduces(t *testing.T) {
	for _, k := range kinds() {
		g := New(k, testDiskBlocks, 7)
		var first []Access
		for i := 0; i < 1000; i++ {
			first = append(first, g.Next())
		}
		g.Reset()
		for i := 0; i < 1000; i++ {
			if a := g.Next(); a != first[i] {
				t.Fatalf("%v: event %d differs after Reset", k, i)
			}
		}
	}
}

func TestGeneratorsSeedMatters(t *testing.T) {
	// Kinds with stochastic components must differ across seeds.
	for _, k := range []Kind{Web, Kernel} {
		g1, g2 := New(k, testDiskBlocks, 1), New(k, testDiskBlocks, 2)
		same := true
		for i := 0; i < 2000; i++ {
			if g1.Next() != g2.Next() {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%v: different seeds produced identical streams", k)
		}
	}
}

func TestGeneratorsTimeMonotoneAndInRange(t *testing.T) {
	for _, k := range kinds() {
		g := New(k, testDiskBlocks, 99)
		var last time.Duration
		for i := 0; i < 20000; i++ {
			a := g.Next()
			if a.At < last {
				t.Fatalf("%v: time went backwards at event %d: %v < %v", k, i, a.At, last)
			}
			last = a.At
			if a.Count < 1 {
				t.Fatalf("%v: empty access %+v", k, a)
			}
			if a.Block < 0 || a.Block+a.Count > testDiskBlocks {
				t.Fatalf("%v: access out of range %+v", k, a)
			}
			if a.Op != blockdev.Read && a.Op != blockdev.Write {
				t.Fatalf("%v: bad op %+v", k, a)
			}
		}
	}
}

// TestLocalityMatchesPaper reproduces the §IV-A-2 rewrite percentages:
// kernel build ≈ 11%, SPECweb banking ≈ 25.2%, Bonnie++ ≈ 35.6%.
func TestLocalityMatchesPaper(t *testing.T) {
	cases := []struct {
		kind      Kind
		horizon   time.Duration
		want      float64
		tolerance float64
	}{
		{Kernel, 10 * time.Minute, 0.110, 0.03},
		{Web, 30 * time.Minute, 0.252, 0.03},
		{Diabolic, 0, 0.356, 0.06}, // horizon = one cycle, set below
	}
	for _, c := range cases {
		g := New(c.kind, testDiskBlocks, 1)
		horizon := c.horizon
		if c.kind == Diabolic {
			horizon = g.(*Diabolical).CycleDuration()
		}
		st := Locality(g, horizon)
		if st.Writes < 100 {
			t.Fatalf("%v: only %d writes in %v", c.kind, st.Writes, horizon)
		}
		if diff := st.RewriteRatio - c.want; diff > c.tolerance || diff < -c.tolerance {
			t.Errorf("%v: rewrite ratio %.3f, want %.3f ± %.2f (%s)",
				c.kind, st.RewriteRatio, c.want, c.tolerance, st)
		}
	}
}

// TestWebUniqueDirtyRate checks the calibration behind Table I: the web
// server dirties roughly 8 unique blocks/s so that a ~790 s first pre-copy
// iteration leaves ~6-7k dirty blocks.
func TestWebUniqueDirtyRate(t *testing.T) {
	g := NewWebServer(testDiskBlocks, 3)
	st := Locality(g, 790*time.Second)
	if st.UniqueBlocks < 4000 || st.UniqueBlocks > 10000 {
		t.Fatalf("unique dirty blocks in 790s = %d, want ~6600", st.UniqueBlocks)
	}
}

// TestStreamingUniqueDirtyRate checks the streaming server's calibration:
// ~610 unique blocks dirtied in ~796 s.
func TestStreamingUniqueDirtyRate(t *testing.T) {
	g := NewStreaming(testDiskBlocks, 3)
	st := Locality(g, 796*time.Second)
	if st.UniqueBlocks < 400 || st.UniqueBlocks > 900 {
		t.Fatalf("unique dirty blocks in 796s = %d, want ~610", st.UniqueBlocks)
	}
}

// TestDiabolicalFootprint checks the Bonnie++ stand-in dirties ~660 MB of
// unique blocks per cycle (two ~330 MB test files).
func TestDiabolicalFootprint(t *testing.T) {
	g := NewDiabolical(testDiskBlocks, 3)
	st := Locality(g, g.CycleDuration())
	uniqueMB := st.UniqueBlocks * blockdev.BlockSize >> 20
	if uniqueMB < 500 || uniqueMB > 800 {
		t.Fatalf("unique dirty footprint per cycle = %d MB, want ~660", uniqueMB)
	}
}

func TestDiabolicalPhaseAt(t *testing.T) {
	g := NewDiabolical(testDiskBlocks, 1)
	if g.PhaseAt(0) != PhasePutc {
		t.Fatalf("cycle starts with %v", g.PhaseAt(0))
	}
	cycle := g.CycleDuration()
	if cycle <= 0 {
		t.Fatal("non-positive cycle")
	}
	// phase order is respected across a full cycle
	var seen []DiabolicalPhase
	for f := 0.001; f < 1.0; f += 0.002 {
		p := g.PhaseAt(time.Duration(float64(cycle) * f))
		if len(seen) == 0 || seen[len(seen)-1] != p {
			seen = append(seen, p)
		}
	}
	want := []DiabolicalPhase{PhasePutc, PhaseWrite, PhaseRewrite, PhaseGetc, PhaseRead, PhaseSeeks}
	if len(seen) != len(want) {
		t.Fatalf("phases %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("phases %v, want %v", seen, want)
		}
	}
	// second cycle wraps
	if g.PhaseAt(cycle+time.Millisecond) != PhasePutc {
		t.Fatal("cycle does not wrap")
	}
	// all phases have names
	for p := PhasePutc; p < numPhases; p++ {
		if p.String() == "unknown" {
			t.Fatalf("phase %d unnamed", p)
		}
	}
}

func TestDiabolicalRewritePhaseAlternates(t *testing.T) {
	g := NewDiabolical(testDiskBlocks, 1)
	// skip to the rewrite phase
	for {
		a := g.Next()
		if g.PhaseAt(a.At) == PhaseRewrite && a.Block >= g.FileBStart {
			// back-to-back read then write of the same chunk
			if a.Op == blockdev.Read {
				b := g.Next()
				if b.Op != blockdev.Write || b.Block != a.Block || b.Count != a.Count {
					t.Fatalf("rewrite pair mismatch: %+v then %+v", a, b)
				}
				return
			}
		}
		if a.At > g.CycleDuration() {
			t.Fatal("never reached rewrite phase")
		}
	}
}

func TestKindStringAndFactory(t *testing.T) {
	for _, k := range kinds() {
		if k.String() == "" || New(k, 1000, 1).Name() != k.String() {
			t.Fatalf("kind %d naming broken", k)
		}
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind has empty name")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("factory accepted unknown kind")
		}
	}()
	New(Kind(42), 1000, 1)
}

func TestProfiles(t *testing.T) {
	// Bonnie++ must churn memory hardest — that ordering produces the
	// paper's 110 ms vs 60 ms downtimes.
	if !(Profile(Diabolic).DirtyRate > Profile(Web).DirtyRate) {
		t.Fatal("diabolical memory dirty rate not highest")
	}
	if !(Profile(Web).DirtyRate > Profile(Stream).DirtyRate) {
		t.Fatal("web memory dirty rate not above streaming")
	}
	if Profile(Kind(42)).HotPages <= 0 {
		t.Fatal("default profile degenerate")
	}
}

func TestReplayAgainstDevice(t *testing.T) {
	dev := blockdev.NewMemDisk(testDiskBlocks, blockdev.BlockSize)
	g := NewWebServer(testDiskBlocks, 5)
	// 30 s of workload in 3 ms; TestReplayVirtualPacing replays it at speed.
	st, err := Replay(g, 1, 30*time.Second, 1e4, func(r blockdev.Request) error {
		if r.Op == blockdev.Write {
			return dev.WriteBlock(r.Block, r.Data)
		}
		return dev.ReadBlock(r.Block, r.Data)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes == 0 || st.Reads == 0 {
		t.Fatalf("stats %+v", st)
	}
	if dev.WrittenBlocks() == 0 {
		t.Fatal("no blocks written")
	}
	if st.WorkloadElapsed != 30*time.Second {
		t.Fatalf("replayed %v of a 30s horizon", st.WorkloadElapsed)
	}
}

func TestReplayStops(t *testing.T) {
	g := NewStreaming(testDiskBlocks, 5)
	stop := make(chan struct{})
	close(stop)
	st, err := Replay(g, 1, time.Hour, 1,
		func(r blockdev.Request) error { return nil }, stop)
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes+st.Reads != 0 {
		t.Fatalf("replay ran after stop: %+v", st)
	}
}

func TestReplayPropagatesSubmitError(t *testing.T) {
	g := NewKernelBuild(testDiskBlocks, 5)
	wantErr := blockdev.ErrOutOfRange
	_, err := Replay(g, 1, time.Hour, 1e6,
		func(r blockdev.Request) error { return wantErr }, nil)
	if err == nil {
		t.Fatal("submit error swallowed")
	}
}

func TestFillBlockDistinguishesGenerations(t *testing.T) {
	a := make([]byte, blockdev.BlockSize)
	b := make([]byte, blockdev.BlockSize)
	FillBlock(a, 10, 1)
	FillBlock(b, 10, 2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("generations produce identical blocks")
	}
	FillBlock(b, 10, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("FillBlock not deterministic")
		}
	}
}

// fillBlockLoop is FillBlock's definition, one byte at a time: the oracle
// the word-and-copy kernel must match.
func fillBlockLoop(buf []byte, block int, generation uint32) {
	var seed [12]byte
	binary.LittleEndian.PutUint64(seed[0:], uint64(block))
	binary.LittleEndian.PutUint32(seed[8:], generation)
	for i := 0; i < len(buf); i++ {
		buf[i] = seed[i%12] ^ byte(i)
	}
}

func TestFillBlockMatchesByteLoop(t *testing.T) {
	for _, n := range []int{0, 1, 11, 767, 768, 769, 4096, 4097, 65536} {
		for _, block := range []int{0, 1, 10, -1, -4097, 1 << 40, math.MaxInt, math.MinInt} {
			for _, gen := range []uint32{0, 1, 0xdeadbeef, math.MaxUint32} {
				got, want := make([]byte, n), make([]byte, n)
				for i := range got {
					got[i] = 0xA5 // every byte must be written
				}
				FillBlock(got, block, gen)
				fillBlockLoop(want, block, gen)
				if !bytes.Equal(got, want) {
					t.Fatalf("FillBlock(%d bytes, block %d, gen %#x) differs from the byte loop", n, block, gen)
				}
			}
		}
	}
}

func BenchmarkFillBlock(b *testing.B) {
	buf := make([]byte, blockdev.BlockSize)
	for _, bc := range []struct {
		name string
		fill func([]byte, int, uint32)
	}{{"period", FillBlock}, {"byte-loop", fillBlockLoop}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				bc.fill(buf, i, 7)
			}
		})
	}
}

func TestLocalityStatsString(t *testing.T) {
	st := LocalityStats{Writes: 100, UniqueBlocks: 75, Rewrites: 25, RewriteRatio: 0.25}
	s := st.String()
	for _, want := range []string{"100 writes", "75 unique", "25.0%"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String %q missing %q", s, want)
		}
	}
}

func TestExpoZeroMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if expo(rng, 0) != 0 {
		t.Fatal("zero mean not zero")
	}
	// clamped at 20x mean
	for i := 0; i < 1000; i++ {
		if d := expo(rng, time.Second); d > 20*time.Second {
			t.Fatalf("expo exceeded clamp: %v", d)
		}
	}
}
