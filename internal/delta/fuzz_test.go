package delta

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// FuzzDeltaSig feeds arbitrary bytes to the signature parser: it must never
// panic or over-read, and anything it accepts must re-marshal to exactly the
// input (the format admits no redundant encodings).
func FuzzDeltaSig(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(Sig(nil, DefaultChunk).Marshal())
	f.Add(Sig(bytes.Repeat([]byte{7}, 4096), DefaultChunk).Marshal())
	f.Add(Sig(bytes.Repeat([]byte{0}, 300), MinChunk).Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		sig, err := ParseSignature(data)
		if err != nil {
			return
		}
		if got := sig.Marshal(); !bytes.Equal(got, data) {
			t.Fatalf("accepted signature re-marshals differently: %d bytes vs %d", len(got), len(data))
		}
	})
}

// FuzzDeltaPatch feeds arbitrary (old, patch) pairs to Apply: it must never
// panic, over-read, or return bytes that fail the patch's own embedded
// strong hash — the "never unverified bytes" guarantee the destination's
// verify-on-apply path relies on.
func FuzzDeltaPatch(f *testing.F) {
	old := bytes.Repeat([]byte{0xA5, 0x5A, 3, 4}, 1024)
	target := append([]byte(nil), old...)
	copy(target[256:], bytes.Repeat([]byte{9}, 512))
	f.Add([]byte(nil), []byte(nil))
	f.Add(old, Diff(Sig(old, DefaultChunk), target))
	f.Add(old, Diff(Sig(old, MinChunk), old))
	f.Add([]byte{}, Diff(Sig(nil, DefaultChunk), target))
	f.Fuzz(func(t *testing.T, oldIn, patch []byte) {
		out, err := Apply(oldIn, patch)
		if err != nil {
			return
		}
		// Whatever Apply accepted must verify against the patch trailer.
		if len(patch) < verifySize {
			t.Fatalf("Apply accepted a %d-byte patch below the verify trailer", len(patch))
		}
		sum := sha256.Sum256(out)
		if !bytes.Equal(sum[:verifySize], patch[len(patch)-verifySize:]) {
			t.Fatalf("Apply returned bytes that fail the SHA-256 trailer")
		}
	})
}

// FuzzDeltaRoundTrip is the codec's defining property over arbitrary
// content and chunk sizes — Apply(old, Diff(Sig(old), new)) == new — run
// through both forms at once: the in-place one on a Differ that is reused
// across inputs (stale table entries and patch bytes must not leak from one
// extent into the next) and the allocating wrappers, which must agree with it
// byte for byte.
func FuzzDeltaRoundTrip(f *testing.F) {
	for _, tc := range goldenCases() {
		f.Add(tc.old[:768], tc.new[:768], uint16(DefaultChunk)) // small seeds: the engine minimizes what it finds
	}
	f.Add([]byte(nil), []byte("tail only"), uint16(MinChunk))
	f.Add(bytes.Repeat([]byte{1, 2, 3}, 100), bytes.Repeat([]byte{1, 2, 3}, 90), uint16(17))
	var differ Differ
	var sigBuf, out []byte
	f.Fuzz(func(t *testing.T, old, target []byte, chunk uint16) {
		sigBuf = AppendSig(sigBuf[:0], old, int(chunk))
		if len(sigBuf) != SigLen(len(old), int(chunk)) {
			t.Fatalf("AppendSig wrote %d bytes, SigLen says %d", len(sigBuf), SigLen(len(old), int(chunk)))
		}
		if owned := Sig(old, int(chunk)).Marshal(); !bytes.Equal(owned, sigBuf) {
			t.Fatal("Sig().Marshal() and AppendSig disagree")
		}
		view, err := ViewSignature(sigBuf)
		if err != nil {
			t.Fatalf("own signature rejected: %v", err)
		}
		patch := differ.Diff(&view, target)
		if fresh := Diff(&view, target); !bytes.Equal(fresh, patch) {
			t.Fatal("a reused Differ and a fresh one produce different patches")
		}
		out, err = AppendApply(out[:0], old, patch)
		if err != nil {
			t.Fatalf("own patch rejected: %v", err)
		}
		if !bytes.Equal(out, target) {
			t.Fatalf("rebuilt %d bytes differ from the %d-byte target", len(out), len(target))
		}
	})
}
