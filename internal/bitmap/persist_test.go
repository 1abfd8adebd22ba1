package bitmap

import (
	"os"
	"path/filepath"
	"testing"
)

func samplePersistBitmap(n int) *Bitmap {
	b := New(n)
	for i := 0; i < n; i += 7 {
		b.Set(i)
	}
	b.Set(n - 1)
	return b
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.bm")
	for _, n := range []int{1, 63, 64, 65, 4096} {
		b := samplePersistBitmap(n)
		if err := b.SaveFile(path); err != nil {
			t.Fatalf("n=%d save: %v", n, err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("n=%d load: %v", n, err)
		}
		if !got.Equal(b) {
			t.Fatalf("n=%d round-trip mismatch", n)
		}
	}
}

// TestSaveLoadLargeSparse: a fresh-write bitmap of a large, mostly clean disk
// rests in the runs form — the file costs what the set costs — and loads
// back equal.
func TestSaveLoadLargeSparse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.bm")
	b := New(10_001_920)
	b.SetRange(4_000_000, 4_000_300)
	b.Set(9_999_999)
	if err := b.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() > 64 {
		t.Fatalf("sparse paper-scale bitmap saved as %d bytes (%v)", st.Size(), err)
	}
	got, err := LoadFile(path)
	if err != nil || !got.Equal(b) {
		t.Fatalf("large sparse round trip: %v", err)
	}
}

// TestSaveOverwritesAtomically: a save over an existing file replaces it
// whole, and a stale .tmp from a crashed previous save is harmless.
func TestSaveOverwritesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bm")
	first := samplePersistBitmap(128)
	if err := first.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash that left a garbage temp file behind.
	if err := os.WriteFile(path+".tmp", []byte("garbage from a dead process"), 0o644); err != nil {
		t.Fatal(err)
	}
	second := New(128)
	second.Set(5)
	if err := second.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(second) {
		t.Fatal("overwrite did not take")
	}
}

// TestLoadDetectsPartialWrites: every truncation of a saved file must fail
// to load — a partially flushed bitmap silently missing dirty blocks would
// corrupt a later incremental migration.
func TestLoadDetectsPartialWrites(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.bm")
	b := samplePersistBitmap(1024)
	if err := b.SaveFile(full); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 3, 7, 8, 12, len(data) / 2, len(data) - 1} {
		torn := filepath.Join(dir, "torn.bm")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := LoadFile(torn); err == nil {
			t.Fatalf("truncation to %d bytes loaded a %d-bit bitmap", cut, got.Len())
		}
	}
}

// TestLoadDetectsBitRot: single-byte corruption anywhere in the payload
// fails the checksum.
func TestLoadDetectsBitRot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rot.bm")
	b := samplePersistBitmap(512)
	if err := b.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{8, 16, len(data) - 1} {
		flipped := append([]byte(nil), data...)
		flipped[at] ^= 0x10
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path); err == nil {
			t.Fatalf("bit flip at %d loaded successfully", at)
		}
	}
}

// TestLoadLegacyFormat: files written before the checksum header (a bare
// marshalled bitmap) still load.
func TestLoadLegacyFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.bm")
	b := samplePersistBitmap(256)
	raw, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(b) {
		t.Fatal("legacy round-trip mismatch")
	}
}

// TestLoadMissingFile returns an error rather than an empty bitmap.
func TestLoadMissingFile(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "absent.bm")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

// FuzzLoadBytes feeds arbitrary bytes through the load path (via a temp
// file): it must either load a consistent bitmap or error — never panic.
func FuzzLoadBytes(f *testing.F) {
	b := samplePersistBitmap(128)
	raw, _ := b.MarshalBinary()
	f.Add(raw)
	f.Add(runsPayload(128, 3, 4, 20, 1))
	f.Add([]byte("BBM1junk"))
	// A journal the engine wrote mid memory pre-copy: blocks 5-7 of 2 048 owed.
	f.Add([]byte("BBM1\xa6\x05\xee\xbd\x00\x08\x00\x00\x00\x00\x00\x01\x05\x03"))
	f.Add([]byte{})
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.bm")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		got, err := LoadFile(path)
		if err != nil {
			return
		}
		if got.Len() < 0 || got.Count() > got.Len() {
			t.Fatalf("inconsistent bitmap from %d bytes: len=%d count=%d", len(data), got.Len(), got.Count())
		}
	})
}
