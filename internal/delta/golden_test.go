package delta

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenExtent is 16 blocks of 4 KiB: the engine's delta extent.
const goldenExtent = 16 * 4096

// noise fills p from a fixed xorshift stream, so the vectors below depend on
// nothing but this file.
func noise(p []byte, seed uint64) {
	x := seed*0x9E3779B97F4A7C15 + 1
	for i := range p {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p[i] = byte(x >> 32)
	}
}

// goldenCases are the four extents the codec's bytes are pinned on: the
// in-place rewrite the WAN return trip is made of, content shifted off the
// chunk grid, and the two repetitive shapes where the candidate rule
// (continue the pending COPY run, else the lowest matching chunk) decides
// what the patch looks like.
func goldenCases() []struct {
	name     string
	old, new []byte
} {
	base := make([]byte, goldenExtent)
	noise(base, 1)

	head := append([]byte(nil), base...)
	for blk := 0; blk < goldenExtent; blk += 4096 {
		noise(head[blk:blk+256], uint64(blk)+2)
	}

	shifted := make([]byte, goldenExtent)
	noise(shifted[:7], 3)
	copy(shifted[7:], base)

	zero := make([]byte, goldenExtent)

	pattern := make([]byte, 128)
	noise(pattern, 4)
	repeated := bytes.Repeat(pattern, goldenExtent/len(pattern))
	// One byte off in the middle: the COPY run breaks there and the rule has
	// to restart it from the lowest chunk.
	broken := append([]byte(nil), repeated...)
	broken[goldenExtent/2+5] ^= 0xff

	return []struct {
		name     string
		old, new []byte
	}{
		{"head-rewrite", base, head},
		{"shift-7", base, shifted},
		{"all-zero", zero, zero},
		{"pattern-128", repeated, broken},
	}
}

// TestGoldenVectors pins the wire bytes of both exchanges: "first 8 bytes of
// SHA-256 / 24-bit length", in hex. Unhinted: Sig(old).Marshal() and
// Diff(Sig(old), new). Hinted, as the engine runs it: the request's
// AppendHint(new), the reply's AppendSig(old) against it, and the patch
// diffed against that reply. The unhinted patches were captured before the
// codec moved onto borrowed scratch and have not moved since; the unhinted
// signatures were taken again when the chunk strong hash became CRC-32C ‖
// CRC-32, and when the signature gained its equal mask. The hinted patch is
// the unhinted one wherever the hint marks nothing (shift-7) or the COPY runs
// stay on the grid; pattern-128's run restarts at a marked chunk instead of
// the lowest matching one, in as many bytes.
func TestGoldenVectors(t *testing.T) {
	golden := map[string][5]string{
		"head-rewrite": {"d30e37438efbf9fc/001848", "c22a014f0dbbdc30/0010f8", "1856c427e4b99f62/000200", "8e922eaa817e572d/000648", "c22a014f0dbbdc30/0010f8"},
		"shift-7":      {"d30e37438efbf9fc/001848", "ed7696c14b91bf64/0000ab", "df285c6dd66b7fcf/000200", "d30e37438efbf9fc/001848", "ed7696c14b91bf64/0000ab"},
		"all-zero":     {"c251674695edc4e2/001848", "553e3a91c17bba00/000021", "32438a971503cbe7/000200", "b2270463db96e796/000048", "553e3a91c17bba00/000021"},
		"pattern-128":  {"7d887bc892323077/001848", "cdd4597fe91ceb04/0000af", "99386a88622281f4/000200", "267a235795ba6706/0000a8", "3be7f48b12546206/0000af"},
	}
	sum := func(p []byte) string {
		h := sha256.Sum256(p)
		return hex.EncodeToString(h[:8]) + "/" + hex.EncodeToString([]byte{byte(len(p) >> 16), byte(len(p) >> 8), byte(len(p))})
	}
	for _, tc := range goldenCases() {
		sig := Sig(tc.old, DefaultChunk)
		raw := sig.Marshal()
		patch := Diff(sig, tc.new)
		hint := AppendHint(nil, tc.new)
		reply := AppendSig(nil, tc.old, DefaultChunk, hint)
		hinted, err := ParseSignature(reply)
		if err != nil {
			t.Fatalf("%s: hinted reply rejected: %v", tc.name, err)
		}
		hintedPatch := Diff(hinted, tc.new)
		got := [5]string{sum(raw), sum(patch), sum(hint), sum(reply), sum(hintedPatch)}
		if want := golden[tc.name]; got != want {
			t.Errorf("%s: signature, patch, hint, reply, hinted patch = %q, want %q", tc.name, got, want)
		}
		for _, p := range [][]byte{patch, hintedPatch} {
			out, err := Apply(tc.old, p)
			if err != nil || !bytes.Equal(out, tc.new) {
				t.Errorf("%s: patch does not rebuild the target (%v)", tc.name, err)
			}
		}
	}
}
