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

// lookup is LookupInto into a fresh block.
func lookup(ix *Index, fp Fingerprint) ([]byte, bool) {
	buf := make([]byte, ix.BlockSize())
	return buf, ix.LookupInto(fp, buf)
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
	if err := CheckMask(buf, 11); err != nil {
		t.Fatalf("canonical mask refused: %v", err)
	}
	for _, count := range []int{0, 8, 16} {
		if err := CheckMask(make([]byte, WantLen(count)), count); err != nil {
			t.Errorf("empty %d-block mask refused: %v", count, err)
		}
	}
	for name, bad := range map[string][]byte{"short": buf[:1], "long": append(buf[:2:2], 0), "padding bit 11": {buf[0], buf[1] | 1<<3}, "padding bit 15": {buf[0], buf[1] | 1<<7}} {
		if CheckMask(bad, 11) == nil {
			t.Errorf("%s mask for 11 blocks accepted", name)
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
	got, ok := lookup(ix, fp)
	if !ok || !bytes.Equal(got, buf) {
		t.Fatal("lookup of scanned content failed")
	}

	// Zero fingerprint materializes with no observation at all.
	z, ok := lookup(ix, ZeroFingerprint(blockdev.BlockSize))
	if !ok || !IsZero(z) {
		t.Fatal("zero lookup failed")
	}

	// Overwrite the backing block: the stale entry must fail verification
	// and be evicted, never return the new bytes under the old fingerprint.
	fill(disk, 3, 0xCD)
	if _, ok := lookup(ix, fp); ok {
		t.Fatal("stale entry verified after overwrite")
	}
	if _, ok := lookup(ix, fp); ok {
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
	if len(ix.entries) != 1 {
		t.Fatalf("len %d", len(ix.entries))
	}

	// New content at the same block retracts the old entry.
	fill(disk, 0, 2)
	disk.ReadBlock(0, buf)
	fpB := Of(buf)
	ix.Observe("d", 0, fpB)
	if _, ok := lookup(ix, fpA); ok {
		t.Fatal("retracted entry still resolves")
	}
	if _, ok := lookup(ix, fpB); !ok {
		t.Fatal("fresh entry does not resolve")
	}

	// Observing zero content retracts without storing.
	ix.Observe("d", 0, ZeroFingerprint(blockdev.BlockSize))
	if len(ix.entries) != 0 {
		t.Fatalf("zero observation stored: len %d", len(ix.entries))
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
	if _, ok := lookup(ix, Of(buf)); !ok {
		t.Fatal("entry missing before drop")
	}
	ix.DropSource("d")
	if len(ix.entries) != 0 {
		t.Fatal("drop left state behind")
	}
	if _, ok := lookup(ix, Of(buf)); ok {
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
	if _, ok := lookup(re, Of(buf)); ok {
		t.Fatal("lookup resolved without a registered source")
	}
	re.RegisterSource("d", disk)
	if got, ok := lookup(re, Of(buf)); !ok || !bytes.Equal(got, buf) {
		t.Fatal("lookup failed after re-registering the source")
	}
}

// checkReverse fails unless ix.rev is exactly ix.entries inverted.
func checkReverse(t *testing.T, ix *Index) {
	t.Helper()
	n := 0
	for source, blocks := range ix.rev {
		for block, fp := range blocks {
			if l, ok := ix.entries[fp]; !ok || l.source != source || l.block != block {
				t.Fatalf("rev[%s][%d] names an entry that is not there (entry %+v, present %v)", source, block, l, ok)
			}
			n++
		}
	}
	if n != len(ix.entries) {
		t.Fatalf("rev holds %d blocks for %d entries", n, len(ix.entries))
	}
}

// TestIndexReverseGrowsWithContent: a scan of n blocks holding k distinct
// contents leaves k reverse entries, whether or not the scan moves entries
// onto later blocks (a stamped scan does), and overwrites keep the two maps
// inverse.
func TestIndexReverseGrowsWithContent(t *testing.T) {
	const n, k = 64, 4
	disk := blockdev.NewMemDisk(n, blockdev.BlockSize)
	for b := 0; b < n; b++ {
		fill(disk, b, byte(b%k+1))
	}
	stamped := NewIndex(blockdev.BlockSize)
	stamped.RegisterSource("d", disk)
	unstamped := NewIndex(blockdev.BlockSize)
	for name, ix := range map[string]*Index{"registered": stamped, "view": unstamped} {
		if got, err := ix.ScanReader("d", disk); err != nil || got != n {
			t.Fatalf("%s: scan indexed %d (%v)", name, got, err)
		}
		if len(ix.entries) != k || len(ix.rev["d"]) != k {
			t.Fatalf("%s: %d entries, %d reverse entries after a scan of %d contents", name, len(ix.entries), len(ix.rev["d"]), k)
		}
		checkReverse(t, ix)
	}
	buf := make([]byte, blockdev.BlockSize)
	for b := 0; b < n; b += 3 { // overwrite some blocks, entries' included
		fill(disk, b, byte(b%7+10))
		disk.ReadBlock(b, buf)
		stamped.Observe("d", b, Of(buf))
		checkReverse(t, stamped)
	}
	for fp := range stamped.entries {
		if _, ok := lookup(stamped, fp); !ok {
			t.Fatal("an entry the overwrites left does not resolve")
		}
	}
	stamped.DropSource("d")
	if len(stamped.entries) != 0 || len(stamped.rev) != 0 {
		t.Fatal("drop left state behind")
	}
}
