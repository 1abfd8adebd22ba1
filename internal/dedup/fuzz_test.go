package dedup

import (
	"bytes"
	"testing"
)

// FuzzDedupFrames feeds arbitrary bytes, as the frame of an advert of count
// blocks, to the two parsers that read a dedup peer's frames: the advert's
// fingerprints (ParseFingerprintsInto) and the want reply (ParseWantReply).
// Each must accept exactly its encoder's form — count fingerprints; the
// layout byte and a bitmap with no padding bit set — what it accepts must
// re-encode to the input, and what it returns must fit in the input: the
// want-bitmap is a view that allocates nothing, the fingerprints take no more
// room than their wire form, and a refusal hands the caller's scratch back.
func FuzzDedupFrames(f *testing.F) {
	fp := Of([]byte("a block"))
	f.Add(uint8(0), fp[:])
	f.Add(uint8(1), AppendFingerprints(nil, []Fingerprint{fp, ZeroFingerprint(4096)}))
	f.Add(uint8(4), AppendWantReply(nil, []byte{0x11}))
	f.Add(uint8(7), AppendWantReply(nil, []byte{0xff}))
	f.Add(uint8(8), []byte{WantLayout, 0xff, 0x01})
	f.Add(uint8(8), []byte{WantLayout, 0xff, 0x02})
	f.Add(uint8(2), []byte{0x05}) // the layout before the leading byte
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		count := int(n) + 1
		scratch := make([]Fingerprint, 0, 1)
		fps, err := ParseFingerprintsInto(scratch, data, count)
		switch {
		case (err == nil) != (len(data) == count*FingerprintSize):
			t.Fatalf("%d bytes for %d fingerprints: parse error %v", len(data), count, err)
		case err != nil && (len(fps) != 0 || cap(fps) != 1):
			t.Fatal("a refused advert did not hand the scratch back")
		case err == nil && cap(fps)*FingerprintSize > max(len(data), cap(scratch)*FingerprintSize):
			t.Fatalf("%d bytes of fingerprints parsed into room for %d", len(data), cap(fps))
		case err == nil && !bytes.Equal(AppendFingerprints(nil, fps), data):
			t.Fatal("accepted fingerprints re-encode differently")
		}

		canonical := len(data) == 1+(count+7)/8 && data[0] == WantLayout
		for k := count; canonical && k < 8*(len(data)-1); k++ {
			canonical = data[1+k/8]&(1<<(k%8)) == 0
		}
		want, err := ParseWantReply(data, count)
		switch {
		case (err == nil) != canonical:
			t.Fatalf("want reply % x for %d blocks: canonical %v, parse error %v", data, count, canonical, err)
		case err == nil && !bytes.Equal(AppendWantReply(nil, want), data):
			t.Fatal("accepted want reply re-encodes differently")
		case err == nil && testing.AllocsPerRun(1, func() { _, _ = ParseWantReply(data, count) }) > 0:
			t.Fatal("parsing an accepted want reply allocated")
		}
	})
}
