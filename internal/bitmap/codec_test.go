package bitmap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// refDense and refRuns are the two wire forms written the slow, obvious way
// (bit by bit), as the oracle the encoder and decoder are held to.
func refDense(b *Bitmap) []byte {
	out := make([]byte, marshalHeader+8*((b.Len()+63)/64))
	binary.LittleEndian.PutUint64(out, uint64(b.Len()))
	for i := 0; i < b.Len(); i++ {
		if b.Test(i) {
			out[marshalHeader+i/8] |= 1 << uint(i%8)
		}
	}
	return out
}

func refRuns(b *Bitmap) []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(b.Len())|1<<56)
	prev := 0
	for i := 0; i < b.Len(); {
		if !b.Test(i) {
			i++
			continue
		}
		j := i
		for j < b.Len() && b.Test(j) {
			j++
		}
		out = binary.AppendUvarint(binary.AppendUvarint(out, uint64(i-prev)), uint64(j-i))
		prev, i = j, j
	}
	return out
}

// webLaid clusters writes the way the web-server guest lays them: short
// bursts of nearby blocks at scattered places.
func webLaid(n, count int, rng *rand.Rand) *Bitmap {
	b := New(n)
	for set := 0; set < count; {
		at := rng.Intn(n)
		for k := rng.Intn(6) + 1; k > 0 && set < count; k-- {
			if at = (at + rng.Intn(40)) % n; !b.Test(at) {
				b.Set(at)
				set++
			}
		}
	}
	return b
}

func randomHalf(n int, rng *rand.Rand) *Bitmap {
	b := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			b.Set(i)
		}
	}
	return b
}

// runsOfLen returns a bitmap of n bits whose runs form has a body of
// exactly body bytes, or nil when n is too short to hold one. Isolated bits
// cost a two-byte pair each; an odd body starts with a bit at 128, whose gap
// takes two bytes.
func runsOfLen(n, body int) *Bitmap {
	first, k := 0, body/2
	if body%2 == 1 {
		first, k = 128, (body-1)/2
	}
	if k == 0 || first+2*(k-1) >= n {
		return nil
	}
	b := New(n)
	for i := 0; i < k; i++ {
		b.Set(first + 2*i)
	}
	return b
}

// TestMarshalFormsProperty: over densities and sizes from empty to a
// million bits, word boundaries included, a bitmap round-trips, never
// marshals longer than its dense form, and takes the runs form exactly when
// that is strictly shorter — a tie goes to dense.
func TestMarshalFormsProperty(t *testing.T) {
	sizes := []int{0, 1, 63, 64, 65, 200, 1000, 16384,
		8*4096 - 64, 8*4096 - 1, 8 * 4096, 8*4096 + 1, 8*4096 + 64, 8*4096 + 128,
		2 * 8 * 4096, 100_000, 1_000_003}
	rng := rand.New(rand.NewSource(7))
	for _, n := range sizes {
		fixtures := map[string]*Bitmap{
			"empty":   New(n),
			"all-set": NewAllSet(n),
		}
		if n > 0 {
			one := New(n)
			one.Set(rng.Intn(n))
			fixtures["one-bit"] = one
			fixtures["web-sparse"] = webLaid(n, n/700+1, rng)
			fixtures["half"] = randomHalf(n, rng)
			if k := n / 64; k > 0 {
				fixtures["alternating"] = runsOfLen(n, 2*k)
			}
			// A runs form one byte shorter than dense, as long, one longer.
			dense := 8 * ((n + 63) / 64)
			for d := -1; d <= 1; d++ {
				if b := runsOfLen(n, dense+d); b != nil {
					if got := len(refRuns(b)) - marshalHeader; got != dense+d {
						t.Fatalf("n=%d: runsOfLen(%d) has a %d-byte body", n, dense+d, got)
					}
					fixtures[fmt.Sprintf("runs=dense%+d", d)] = b
				}
			}
		}
		for name, b := range fixtures {
			name = fmt.Sprintf("n=%d/%s", n, name)
			data, err := b.MarshalBinary()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			dense, runs := refDense(b), refRuns(b)
			want := dense
			if len(runs) < len(dense) {
				want = runs
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("%s: marshalled %d bytes (tag %d); dense %d, runs %d, rule wants tag %d",
					name, len(data), data[7], len(dense), len(runs), want[7])
			}
			if len(data) > len(dense) {
				t.Fatalf("%s: %d bytes, longer than dense %d", name, len(data), len(dense))
			}
			if got := b.EncodedLen(); got != len(data) {
				t.Fatalf("%s: EncodedLen %d, marshalled %d", name, got, len(data))
			}
			// Both forms decode, whichever the rule picked.
			for _, form := range [][]byte{dense, runs} {
				var got Bitmap
				if err := got.UnmarshalBinary(form); err != nil {
					t.Fatalf("%s: unmarshal tag %d: %v", name, form[7], err)
				}
				if !got.Equal(b) {
					t.Fatalf("%s: tag %d round trip mismatch", name, form[7])
				}
				sized, err := UnmarshalSized(form, n)
				if err != nil || !sized.Equal(b) {
					t.Fatalf("%s: sized unmarshal tag %d: %v", name, form[7], err)
				}
			}
		}
	}
}

// TestMarshalPaperScale pins the sizes the issue quotes for the paper's
// 39 070 MB disk: an idle guest's empty freeze set is the bare header, and
// an all-set bitmap (the on-demand baseline's) is one pair.
func TestMarshalPaperScale(t *testing.T) {
	const blocks = 10_001_920
	if data, _ := New(blocks).MarshalBinary(); len(data) != 8 {
		t.Fatalf("empty paper-scale bitmap marshals to %d bytes, want 8", len(data))
	}
	if data, _ := NewAllSet(blocks).MarshalBinary(); len(data) != 8+1+4 {
		t.Fatalf("all-set paper-scale bitmap marshals to %d bytes, want 13", len(data))
	}
	sparse := webLaid(blocks, 13440, rand.New(rand.NewSource(1)))
	data, _ := sparse.MarshalBinary()
	if dense := 8 + blocks/8; len(data) > dense/40 {
		t.Fatalf("13 440 scattered bits marshal to %d bytes of a %d-byte dense form", len(data), dense)
	}
}

// runsPayload builds a runs-form payload from raw pair values.
func runsPayload(n uint64, pairs ...uint64) []byte {
	out := binary.LittleEndian.AppendUint64(nil, n|1<<56)
	for _, v := range pairs {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

// TestUnmarshalRejectsNonCanonicalRuns: one byte string per bitmap — every
// other spelling of the runs form is refused, by both decoders.
func TestUnmarshalRejectsNonCanonicalRuns(t *testing.T) {
	const n = 1000
	good := runsPayload(n, 10, 5, 1, 3) // bits [10,15) and [16,19)
	var b Bitmap
	if err := b.UnmarshalBinary(good); err != nil || b.Count() != 8 || !b.Test(10) || b.Test(15) || !b.Test(18) {
		t.Fatalf("canonical payload: %v, %v", err, &b)
	}
	bad := map[string][]byte{
		"zero-length run":         runsPayload(n, 10, 0),
		"zero-length second run":  runsPayload(n, 10, 5, 3, 0),
		"touching runs":           runsPayload(n, 10, 5, 0, 3),
		"run past n":              runsPayload(n, 990, 11),
		"gap past n":              runsPayload(n, 1001, 1),
		"second run past n":       runsPayload(n, 10, 5, 980, 6),
		"run overflowing int":     runsPayload(n, 1, 1<<63),
		"gap overflowing int":     runsPayload(n, 1<<63+5, 1),
		"gap without a run":       runsPayload(n, 10, 5, 3),
		"truncated uvarint":       append(runsPayload(n, 10, 5), 0x80),
		"zero-padded gap":         append(runsPayload(n), 0x8a, 0x00, 5),
		"zero-padded run":         append(runsPayload(n, 10), 0x85, 0x00),
		"overlong uvarint":        append(runsPayload(n), bytes.Repeat([]byte{0xff}, 11)...),
		"trailing byte":           append(append([]byte(nil), good...), 0),
		"any run in an empty map": runsPayload(0, 0, 1),
		"unknown format tag":      binary.LittleEndian.AppendUint64(nil, n|2<<56),
	}
	for name, data := range bad {
		if err := b.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: accepted by UnmarshalBinary", name)
		}
		if _, err := UnmarshalSized(data, int(binary.LittleEndian.Uint64(data)&(1<<56-1))); err == nil {
			t.Errorf("%s: accepted by UnmarshalSized", name)
		}
	}
	if b.Len() != n || b.Count() != 8 {
		t.Fatalf("a refused payload disturbed the receiver: %v", &b)
	}
}

// allocated returns how many heap bytes fn allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestUnmarshalSizedRefusesBeforeAllocating: a payload whose declared count
// disagrees with the size the caller expects is refused without allocating
// for it — in the runs form ten bytes can declare a terabit. The unsized
// decoder, which has nothing to check a runs payload against, caps what it
// may declare.
func TestUnmarshalSizedRefusesBeforeAllocating(t *testing.T) {
	for name, data := range map[string][]byte{
		"runs declaring a terabit":  runsPayload(1<<40, 5, 1),
		"runs declaring 2^30 bits":  runsPayload(1<<30, 5, 1),
		"empty runs, one bit short": runsPayload(4095),
		"dense of another size":     refDense(NewAllSet(1 << 20)),
	} {
		var err error
		if got := allocated(func() { _, err = UnmarshalSized(data, 4096) }); err == nil || got > 4096 {
			t.Errorf("%s: err %v after allocating %d bytes", name, err, got)
		}
	}
	if _, err := UnmarshalSized(runsPayload(4096), 4096); err != nil {
		t.Fatalf("matching size refused: %v", err)
	}
	var b Bitmap
	var err error
	if got := allocated(func() { err = b.UnmarshalBinary(runsPayload(1<<32+1, 5, 1)) }); err == nil || got > 4096 {
		t.Fatalf("unsized decode of a runs payload past the cap: err %v after allocating %d bytes", err, got)
	}
	if err := b.UnmarshalBinary(runsPayload(1<<40+1, 5, 1)); err == nil {
		t.Fatal("implausible bit count accepted")
	}
	// An invalid runs body is found before the words are allocated.
	if got := allocated(func() { err = b.UnmarshalBinary(runsPayload(1<<28, 5, 0)) }); err == nil || got > 4096 {
		t.Fatalf("invalid body: err %v after allocating %d bytes", err, got)
	}
}

// FuzzBitmapUnmarshal feeds arbitrary bytes to both decoders. Neither may
// panic; the sized decoder allocates no more than the size it was told to
// expect; the two agree; an accepted input re-marshals to an Equal bitmap;
// and an accepted runs-form input is the canonical spelling of what it
// decoded to.
func FuzzBitmapUnmarshal(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	seeds := []*Bitmap{New(0), New(200), NewAllSet(129), webLaid(70_000, 90, rng), randomHalf(500, rng)}
	for d := -1; d <= 1; d++ { // the encoder's boundary: runs one byte shorter than dense, as long, longer
		seeds = append(seeds, runsOfLen(1000, 8*16+d))
	}
	for _, b := range seeds {
		f.Add(refDense(b))
		f.Add(refRuns(b))
	}
	f.Add(runsPayload(1000, 10, 5, 0, 3))
	f.Add(runsPayload(1<<40, 5, 1))
	f.Add([]byte{})
	const fuzzMaxBits = 1 << 17
	f.Fuzz(func(t *testing.T, data []byte) {
		want := 70_000
		declaredSmall := false
		if len(data) >= marshalHeader {
			if n := binary.LittleEndian.Uint64(data) & (1<<tagShift - 1); n <= fuzzMaxBits {
				want, declaredSmall = int(n), true
			}
		}
		var sized *Bitmap
		var err error
		if got := allocated(func() { sized, err = UnmarshalSized(data, want) }); got > fuzzMaxBits/8+1<<20 {
			t.Fatalf("sized decode of %d bytes for %d bits allocated %d bytes", len(data), want, got)
		}
		if declaredSmall {
			var plain Bitmap
			perr := plain.UnmarshalBinary(data)
			if (perr == nil) != (err == nil) {
				t.Fatalf("decoders disagree: sized %v, unsized %v", err, perr)
			}
			if perr == nil && !plain.Equal(sized) {
				t.Fatal("decoders decoded different bitmaps")
			}
		} else if err == nil {
			t.Fatalf("sized decode accepted a payload declaring another size than %d", want)
		}
		if err != nil {
			return
		}
		if sized.Len() != want || sized.Count() > want {
			t.Fatalf("inconsistent bitmap: len %d (want %d), count %d", sized.Len(), want, sized.Count())
		}
		if data[7] == tagRuns && !bytes.Equal(data, refRuns(sized)) {
			t.Fatalf("non-canonical runs form accepted: % x", data)
		}
		again, err := sized.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Bitmap
		if err := back.UnmarshalBinary(again); err != nil || !back.Equal(sized) {
			t.Fatalf("re-marshal round trip: %v", err)
		}
	})
}
