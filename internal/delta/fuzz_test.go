package delta

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// FuzzDeltaSig feeds arbitrary bytes to the signature parser: it must never
// panic or over-read, the view must allocate nothing and the owned form no
// more than the input, and anything it accepts must be canonical — a mask
// marking full chunks only — and re-marshal to exactly the input. Then it
// signs arbitrary content against an arbitrary hint payload, short, long or
// lying: the reply must parse, marshal back to itself, and mark equal only
// full chunks whose every unit matches the hint.
func FuzzDeltaSig(f *testing.F) {
	block := bytes.Repeat([]byte{7}, 4096)
	f.Add([]byte(nil), []byte(nil), []byte(nil))
	f.Add(Sig(nil, DefaultChunk).Marshal(), []byte(nil), []byte(nil))
	f.Add(Sig(block, DefaultChunk).Marshal(), block, AppendHint(nil, block))
	f.Add(Sig(bytes.Repeat([]byte{0}, 300), MinChunk).Marshal(), block[:1500], AppendHint(nil, block[:1500]))
	f.Add(AppendSig(nil, block, DefaultChunk, AppendHint(nil, block)), block, AppendHint(nil, block[:2048]))
	f.Fuzz(func(t *testing.T, data, old, hint []byte) {
		if sig, err := ParseSignature(data); err == nil {
			if allocs := testing.AllocsPerRun(1, func() { _, _ = ViewSignature(data) }); allocs > 0 {
				t.Fatalf("ViewSignature allocated %.0f times", allocs)
			}
			if owned := cap(sig.equal); owned > len(data) { // the mask and the records share one buffer
				t.Fatalf("a %d-byte signature parsed into %d bytes", len(data), owned)
			}
			for i := sig.OldLen / sig.Chunk; i < len(sig.equal)*8; i++ {
				if sig.equal[i/8]&(1<<(i%8)) != 0 {
					t.Fatalf("accepted a mask marking chunk %d past the %d full ones", i, sig.OldLen/sig.Chunk)
				}
			}
			if got := sig.Marshal(); !bytes.Equal(got, data) {
				t.Fatalf("accepted signature re-marshals differently: %d bytes vs %d", len(got), len(data))
			}
		}

		reply := AppendSig(nil, old, DefaultChunk, hint)
		sig, err := ParseSignature(reply)
		if err != nil {
			t.Fatalf("own reply rejected: %v", err)
		}
		if !bytes.Equal(sig.Marshal(), reply) {
			t.Fatal("own reply re-marshals differently")
		}
		for i := 0; i < len(old)/DefaultChunk; i++ {
			if !sig.isEqual(i) {
				continue
			}
			for off := i * DefaultChunk; off < (i+1)*DefaultChunk; off = (off/Unit + 1) * Unit {
				u := off / Unit
				digest := AppendHint(nil, old[u*Unit:min((u+1)*Unit, len(old))])
				if (u+1)*strongSize > len(hint) || !bytes.Equal(digest, hint[u*strongSize:(u+1)*strongSize]) {
					t.Fatalf("chunk %d marked equal, but unit %d does not match the hint", i, u)
				}
			}
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
// byte for byte. It runs the hinted exchange too: against the honest hint of
// the target the patch must rebuild it; against a lying hint — the fuzzer's
// bytes, or the hint of old, which claims nothing changed — the patch must
// rebuild the target or be refused by its trailer, never yield other bytes.
func FuzzDeltaRoundTrip(f *testing.F) {
	for _, tc := range goldenCases() {
		f.Add(tc.old[:768], tc.new[:768], uint16(DefaultChunk), []byte(nil)) // small seeds: the engine minimizes what it finds
	}
	f.Add([]byte(nil), []byte("tail only"), uint16(MinChunk), []byte("lying hint"))
	f.Add(bytes.Repeat([]byte{1, 2, 3}, 100), bytes.Repeat([]byte{1, 2, 3}, 90), uint16(17), []byte(nil))
	tc := goldenCases()[0]
	f.Add(tc.old[:3000], tc.new[:3000], uint16(DefaultChunk), AppendHint(nil, tc.old[:2048]))
	var differ Differ
	var hint, sigBuf, out []byte
	f.Fuzz(func(t *testing.T, old, target []byte, chunk uint16, lie []byte) {
		sigBuf = AppendSig(sigBuf[:0], old, int(chunk), nil)
		if len(sigBuf) != SigLen(len(old), int(chunk), 0) {
			t.Fatalf("AppendSig wrote %d bytes, SigLen says %d", len(sigBuf), SigLen(len(old), int(chunk), 0))
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

		hint = AppendHint(hint[:0], target)
		if len(hint) != HintLen(len(target)) {
			t.Fatalf("AppendHint wrote %d bytes, HintLen says %d", len(hint), HintLen(len(target)))
		}
		for i, h := range [][]byte{hint, lie, AppendHint(nil, old)} {
			sigBuf = AppendSig(sigBuf[:0], old, int(chunk), h)
			view, err := ViewSignature(sigBuf)
			if err != nil {
				t.Fatalf("own hinted signature rejected: %v", err)
			}
			patch := differ.Diff(&view, target)
			if fresh := Diff(&view, target); !bytes.Equal(fresh, patch) {
				t.Fatal("a reused Differ and a fresh one produce different hinted patches")
			}
			out, err = AppendApply(out[:0], old, patch)
			if i == 0 && err != nil {
				t.Fatalf("patch against the honest hint rejected: %v", err)
			}
			if err == nil && !bytes.Equal(out, target) {
				t.Fatalf("hint %d: rebuilt %d bytes differ from the %d-byte target", i, len(out), len(target))
			}
		}
	})
}
