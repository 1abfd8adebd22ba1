package dedup

import (
	"bytes"
	"testing"

	"bbmig/internal/blockdev"
)

func fill(disk *blockdev.MemDisk, n int, seed byte) {
	buf := make([]byte, disk.BlockSize())
	for i := range buf {
		buf[i] = seed ^ byte(i)
	}
	if err := disk.WriteBlock(n, buf); err != nil {
		panic(err)
	}
}

func TestFingerprintBasics(t *testing.T) {
	a := Of([]byte{1, 2, 3})
	b := Of([]byte{1, 2, 3})
	c := Of([]byte{1, 2, 4})
	if a != b {
		t.Fatal("same content, different fingerprints")
	}
	if a == c {
		t.Fatal("different content, same fingerprint")
	}
	zero := make([]byte, 4096)
	if Of(zero) != ZeroFingerprint(4096) {
		t.Fatal("zero fingerprint mismatch")
	}
	if !IsZero(zero) {
		t.Fatal("IsZero(zeros) = false")
	}
	zero[4095] = 1
	if IsZero(zero) {
		t.Fatal("IsZero(nonzero) = true")
	}
}

func TestFingerprintWire(t *testing.T) {
	fps := []Fingerprint{Of([]byte("a")), Of([]byte("b")), Of([]byte("c"))}
	buf := AppendFingerprints(nil, fps)
	if len(buf) != 3*FingerprintSize {
		t.Fatalf("encoded %d bytes", len(buf))
	}
	got, err := ParseFingerprintsInto(nil, buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fps {
		if got[i] != fps[i] {
			t.Fatalf("fingerprint %d did not round-trip", i)
		}
	}
	if _, err := ParseFingerprintsInto(nil, buf, 2); err == nil {
		t.Fatal("short count accepted")
	}
	if _, err := ParseFingerprintsInto(nil, buf[:10], 3); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestWantBits(t *testing.T) {
	buf := make([]byte, WantLen(11))
	if len(buf) != 2 {
		t.Fatalf("WantLen(11) = %d", len(buf))
	}
	SetWant(buf, 0)
	SetWant(buf, 7)
	SetWant(buf, 10)
	for k := 0; k < 11; k++ {
		want := k == 0 || k == 7 || k == 10
		if Want(buf, k) != want {
			t.Fatalf("bit %d = %v, want %v", k, Want(buf, k), want)
		}
	}
}

func TestIndexLookupVerifies(t *testing.T) {
	disk := blockdev.NewMemDisk(16, blockdev.BlockSize)
	fill(disk, 3, 0xAB)
	ix := NewIndex(blockdev.BlockSize)
	if err := ix.RegisterSource("d", disk); err != nil {
		t.Fatal(err)
	}
	if n, err := ix.ScanSource("d"); err != nil || n != 1 {
		t.Fatalf("scan: %d, %v", n, err)
	}

	buf := make([]byte, blockdev.BlockSize)
	disk.ReadBlock(3, buf)
	fp := Of(buf)
	got, ok := ix.Lookup(fp)
	if !ok || !bytes.Equal(got, buf) {
		t.Fatal("lookup of scanned content failed")
	}

	// Zero fingerprint materializes with no observation at all.
	z, ok := ix.Lookup(ZeroFingerprint(blockdev.BlockSize))
	if !ok || !IsZero(z) {
		t.Fatal("zero lookup failed")
	}

	// Overwrite the backing block: the stale entry must fail verification
	// and be evicted, never return the new bytes under the old fingerprint.
	fill(disk, 3, 0xCD)
	if _, ok := ix.Lookup(fp); ok {
		t.Fatal("stale entry verified after overwrite")
	}
	if _, ok := ix.Lookup(fp); ok {
		t.Fatal("evicted entry came back")
	}
}

func TestIndexObserveRetractsOverwrites(t *testing.T) {
	disk := blockdev.NewMemDisk(8, blockdev.BlockSize)
	ix := NewIndex(blockdev.BlockSize)
	ix.RegisterSource("d", disk)

	fill(disk, 0, 1)
	buf := make([]byte, blockdev.BlockSize)
	disk.ReadBlock(0, buf)
	fpA := Of(buf)
	ix.Observe("d", 0, fpA)
	if ix.Len() != 1 {
		t.Fatalf("len %d", ix.Len())
	}

	// New content at the same block retracts the old entry.
	fill(disk, 0, 2)
	disk.ReadBlock(0, buf)
	fpB := Of(buf)
	ix.Observe("d", 0, fpB)
	if _, ok := ix.Lookup(fpA); ok {
		t.Fatal("retracted entry still resolves")
	}
	if _, ok := ix.Lookup(fpB); !ok {
		t.Fatal("fresh entry does not resolve")
	}

	// Observing zero content retracts without storing.
	ix.Observe("d", 0, ZeroFingerprint(blockdev.BlockSize))
	if ix.Len() != 0 {
		t.Fatalf("zero observation stored: len %d", ix.Len())
	}
}

func TestIndexDropSource(t *testing.T) {
	disk := blockdev.NewMemDisk(8, blockdev.BlockSize)
	fill(disk, 1, 9)
	ix := NewIndex(blockdev.BlockSize)
	ix.RegisterSource("d", disk)
	ix.ScanSource("d")
	buf := make([]byte, blockdev.BlockSize)
	disk.ReadBlock(1, buf)
	if _, ok := ix.Lookup(Of(buf)); !ok {
		t.Fatal("entry missing before drop")
	}
	ix.DropSource("d")
	if ix.Len() != 0 {
		t.Fatal("drop left state behind")
	}
	if _, ok := ix.Lookup(Of(buf)); ok {
		t.Fatal("entry resolves after drop")
	}
}

func TestIndexUnregisteredSourceMisses(t *testing.T) {
	disk := blockdev.NewMemDisk(8, blockdev.BlockSize)
	fill(disk, 2, 7)
	// Observations made through a view, with no live device registered
	// under their name: lookups must miss cleanly until the owner registers
	// the source.
	re := NewIndex(blockdev.BlockSize)
	if _, err := re.ScanReader("d", disk); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockdev.BlockSize)
	disk.ReadBlock(2, buf)
	if _, ok := re.Lookup(Of(buf)); ok {
		t.Fatal("lookup resolved without a registered source")
	}
	re.RegisterSource("d", disk)
	if got, ok := re.Lookup(Of(buf)); !ok || !bytes.Equal(got, buf) {
		t.Fatal("lookup failed after re-registering the source")
	}
}
