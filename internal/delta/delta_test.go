package delta

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"
)

// roundTrip asserts the codec's defining property for one (old, new) pair:
// Apply(old, Diff(Sig(old), new)) == new, byte for byte.
func roundTrip(t *testing.T, old, target []byte, chunk int) []byte {
	t.Helper()
	sig := Sig(old, chunk)
	parsed, err := ParseSignature(sig.Marshal())
	if err != nil {
		t.Fatalf("ParseSignature(Marshal()): %v", err)
	}
	patch := Diff(parsed, target)
	got, err := Apply(old, patch)
	if err != nil {
		t.Fatalf("Apply: %v (old %d bytes, target %d bytes, chunk %d)", err, len(old), len(target), chunk)
	}
	if !bytes.Equal(got, target) {
		t.Fatalf("Apply rebuilt %d bytes != target %d bytes", len(got), len(target))
	}
	return patch
}

// TestApplyDiffIdentity is the property test: for random (old, new) block
// pairs — plus the degenerate identical, disjoint, and all-zero cases — the
// reconstruction is byte-for-byte exact. Run under -race in CI.
func TestApplyDiffIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	chunks := []int{MinChunk, DefaultChunk, 512}
	lengths := []int{0, 1, 15, 16, 127, 128, 129, 4096, 4097, 12288}
	for _, chunk := range chunks {
		for _, n := range lengths {
			old := randBytes(n)
			// identical
			roundTrip(t, old, append([]byte(nil), old...), chunk)
			// disjoint random content
			roundTrip(t, old, randBytes(n), chunk)
			// all-zero on both sides
			roundTrip(t, make([]byte, n), make([]byte, n), chunk)
			// zero old, random new and vice versa
			roundTrip(t, make([]byte, n), randBytes(n), chunk)
			roundTrip(t, old, make([]byte, n), chunk)
			// different lengths
			roundTrip(t, old, randBytes(n/2), chunk)
			roundTrip(t, old, randBytes(n*2+7), chunk)
		}
	}
	// Fully random pairs at random lengths.
	for i := 0; i < 200; i++ {
		old := randBytes(rng.Intn(8192))
		target := randBytes(rng.Intn(8192))
		roundTrip(t, old, target, MinChunk+rng.Intn(512))
	}
	// Hot-rewrite shape: target is old with a few chunks overwritten.
	for i := 0; i < 50; i++ {
		old := randBytes(4096)
		target := append([]byte(nil), old...)
		for k := 0; k < 4; k++ {
			off := rng.Intn(len(target) - 64)
			rng.Read(target[off : off+64])
		}
		roundTrip(t, old, target, DefaultChunk)
	}
}

// TestPatchShrinksOnRewrite pins the codec's reason to exist: a hot-block
// rewrite (a few rows of a 4 KiB block changed) patches in a small fraction
// of the literal bytes, while an identical block patches in a few dozen.
func TestPatchShrinksOnRewrite(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	old := make([]byte, 4096)
	rng.Read(old)

	identical := roundTrip(t, old, append([]byte(nil), old...), DefaultChunk)
	if len(identical) > 64 {
		t.Errorf("identical content patched in %d bytes, want <= 64", len(identical))
	}

	target := append([]byte(nil), old...)
	rng.Read(target[512:768]) // one hot 256-byte rewrite
	patch := roundTrip(t, old, target, DefaultChunk)
	if len(patch) > len(target)/4 {
		t.Errorf("hot rewrite patched in %d bytes, want <= %d", len(patch), len(target)/4)
	}
}

// TestSignatureStrictness pins the parse-layer validation: truncation,
// padding, and out-of-range headers are all errors.
func TestSignatureStrictness(t *testing.T) {
	sig := Sig(bytes.Repeat([]byte{0xAB}, 4096), DefaultChunk).Marshal()
	if _, err := ParseSignature(sig); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	if _, err := ParseSignature(sig[:len(sig)-1]); err == nil {
		t.Error("truncated signature accepted")
	}
	if _, err := ParseSignature(append(append([]byte(nil), sig...), 0)); err == nil {
		t.Error("padded signature accepted")
	}
	if _, err := ParseSignature(nil); err == nil {
		t.Error("empty signature accepted")
	}
	bad := append([]byte(nil), sig...)
	bad[0] = 1 // chunk size 1 < MinChunk
	bad[1], bad[2], bad[3] = 0, 0, 0
	if _, err := ParseSignature(bad); err == nil {
		t.Error("undersized chunk accepted")
	}
	// The layout before the equal mask: the records straight after the
	// header. Read with a mask, its first records mark chunks equal that the
	// length then does not account for.
	if _, err := ParseSignature(append(sig[:SigHeaderLen:SigHeaderLen], sig[SigHeaderLen+4:]...)); err == nil {
		t.Error("signature without its equal mask accepted")
	}
	// 300 bytes at 128: two full chunks, so the mask's one byte may set only
	// its two low bits; the short third chunk is always recorded.
	short := Sig(bytes.Repeat([]byte{0xAB}, 300), DefaultChunk).Marshal()
	for _, bit := range []byte{1 << 2, 1 << 7} {
		bad := append([]byte(nil), short...)
		bad[SigHeaderLen] |= bit
		bad = bad[:len(bad)-RecordLen] // the length agrees with the count
		if _, err := ParseSignature(bad); err == nil {
			t.Errorf("equal mask %#02x marks a chunk past the full ones and was accepted", bad[SigHeaderLen])
		}
	}
	marked := append([]byte(nil), short...)
	marked[SigHeaderLen] |= 1
	if _, err := ParseSignature(marked[:len(marked)-RecordLen]); err != nil {
		t.Errorf("a marked full chunk with one record less rejected: %v", err)
	}
}

// TestApplyVerification pins verify-on-apply: a tampered patch or mismatched
// old content yields an error, never silently wrong bytes.
func TestApplyVerification(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	old := make([]byte, 4096)
	rng.Read(old)
	target := append([]byte(nil), old...)
	rng.Read(target[:256])
	patch := Diff(Sig(old, DefaultChunk), target)

	// Flip one bit of the embedded verify hash.
	bad := append([]byte(nil), patch...)
	bad[len(bad)-1] ^= 1
	if _, err := Apply(old, bad); err == nil {
		t.Error("tampered verify hash accepted")
	}
	// Apply against content the signature never described: COPY ops resolve
	// to different bytes, so the verify hash must reject the result.
	other := make([]byte, 4096)
	rng.Read(other)
	if _, err := Apply(other, patch); err == nil {
		t.Error("patch applied against mismatched old content")
	}
	// Sanity: the untampered patch still applies.
	got, err := Apply(old, patch)
	if err != nil || !bytes.Equal(got, target) {
		t.Fatalf("control apply failed: %v", err)
	}
	sum := sha256.Sum256(got)
	if !bytes.Equal(patch[len(patch)-16:], sum[:16]) {
		t.Error("patch trailer is not the truncated SHA-256 of the target")
	}
}

// TestEnginePathAllocations holds the codec's steady state, as the engine
// drives it, to a handful of allocations per 16-block extent: hint written
// into a reused request buffer, signature against it into a reused reply
// buffer, read back as a view, diffed on a reused Differ, applied into a
// reused output buffer. It used to cost a map bucket per chunk and a copy of
// every literal.
func TestEnginePathAllocations(t *testing.T) {
	tc := goldenCases()[0]
	var differ Differ
	hint := make([]byte, 0, HintLen(len(tc.new)))
	sigBuf := make([]byte, 0, SigLen(len(tc.old), DefaultChunk, 0))
	out := make([]byte, 0, len(tc.new))
	allocs := testing.AllocsPerRun(10, func() {
		hint = AppendHint(hint[:0], tc.new)
		sigBuf = AppendSig(sigBuf[:0], tc.old, DefaultChunk, hint)
		sig, err := ViewSignature(sigBuf)
		if err != nil {
			t.Fatal(err)
		}
		patch := differ.Diff(&sig, tc.new)
		if out, err = AppendApply(out[:0], tc.old, patch); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(out, tc.new) {
		t.Fatal("the extent did not round-trip")
	}
	if allocs > 4 {
		t.Errorf("hint, sig, view, diff, apply of one extent: %.1f allocations, want <= 4", allocs)
	}
}

// TestAppendApplyKeepsPrefix: AppendApply appends, so what dst already held
// is neither rebuilt over nor hashed into the verification.
func TestAppendApplyKeepsPrefix(t *testing.T) {
	tc := goldenCases()[1]
	patch := Diff(Sig(tc.old, DefaultChunk), tc.new)
	out, err := AppendApply([]byte("prefix"), tc.old, patch)
	if err != nil {
		t.Fatal(err)
	}
	if string(out[:6]) != "prefix" || !bytes.Equal(out[6:], tc.new) {
		t.Error("AppendApply did not append the target after dst's content")
	}
}

// weakSumByteLoop is the rsync checksum as a byte loop, the oracle weakSum's
// word-at-a-time form must equal.
func weakSumByteLoop(p []byte) uint32 {
	var a, b uint32
	for i, c := range p {
		a += uint32(c)
		b += uint32(len(p)-i) * uint32(c)
	}
	return a&0xffff | b<<16
}

// TestWeakSumMatchesByteLoop holds weakSum to the byte loop bit for bit: every
// length to 300 (so every remainder of the 16-byte step), all-0xFF input (the
// largest lane sums), random input and a MaxChunk window; and weakRoll, fed
// the new sum, to a fresh sum of each shifted window.
func TestWeakSumMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(what string, p []byte) {
		t.Helper()
		if got, want := weakSum(p), weakSumByteLoop(p); got != want {
			t.Fatalf("%s, %d bytes: weakSum %#08x, byte loop %#08x", what, len(p), got, want)
		}
	}
	for n := 0; n <= 300; n++ {
		p := make([]byte, n)
		rng.Read(p)
		check("random", p)
		check("all-0xFF", bytes.Repeat([]byte{0xff}, n))
	}
	big := make([]byte, MaxChunk)
	rng.Read(big)
	check("random", big)
	check("all-0xFF", bytes.Repeat([]byte{0xff}, MaxChunk))

	for _, w := range []int{MinChunk, DefaultChunk, 4096} {
		p := make([]byte, w+500)
		rng.Read(p)
		copy(p[w/2:], bytes.Repeat([]byte{0xff}, w)) // a run of maximal bytes
		sum := weakSum(p[:w])
		for i := 0; i+w < len(p); i++ {
			sum = weakRoll(sum, w, p[i], p[i+w])
			if want := weakSumByteLoop(p[i+1 : i+1+w]); sum != want {
				t.Fatalf("window %d rolled to %d: %#08x, fresh sum %#08x", w, i+1, sum, want)
			}
		}
	}
}

// TestForgedSignatureRefused is the collision the strong hash cannot rule
// out: one chunk's record is forged to the (weak, strong) of different
// content, so Diff names that old chunk for the new bytes. The patch is a
// COPY, and the trailer refuses what it rebuilds.
func TestForgedSignatureRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	old := make([]byte, 4096)
	rng.Read(old)
	target := append([]byte(nil), old...)
	rng.Read(target[512:640]) // chunk 4 of the old content no longer holds
	raw := Sig(old, DefaultChunk).Marshal()
	rec := raw[SigHeaderLen+maskLen(len(old), DefaultChunk)+4*RecordLen:]
	putRecord(rec, target[512:640])
	sig, err := ViewSignature(raw)
	if err != nil {
		t.Fatal(err)
	}
	patch := Diff(&sig, target)
	// One COPY of all 32 chunks, then the trailer: no literal byte at all.
	if want := patchHeaderLen + 9 + verifySize; len(patch) != want || patch[patchHeaderLen] != opCopy {
		t.Fatalf("forged signature: patch of %d bytes, want one COPY op (%d bytes)", len(patch), want)
	}
	if out, err := Apply(old, patch); err == nil {
		t.Fatalf("patch naming a forged chunk applied (%d bytes, target equal: %v)", len(out), bytes.Equal(out, target))
	}
	// The honest signature yields a patch that rebuilds the target.
	roundTrip(t, old, target, DefaultChunk)
}
