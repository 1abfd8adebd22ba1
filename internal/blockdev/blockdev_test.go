package blockdev

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
)

func fillPattern(t *testing.T, d Device, seed int64, frac float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, d.BlockSize())
	for n := 0; n < d.NumBlocks(); n++ {
		if rng.Float64() > frac {
			continue
		}
		rng.Read(buf)
		if err := d.WriteBlock(n, buf); err != nil {
			t.Fatalf("write %d: %v", n, err)
		}
	}
}

func testDeviceBasics(t *testing.T, d Device) {
	t.Helper()
	bs := d.BlockSize()
	buf := make([]byte, bs)
	// unwritten blocks read as zeros
	if err := d.ReadBlock(0, buf); err != nil {
		t.Fatalf("read zero block: %v", err)
	}
	if !bytes.Equal(buf, make([]byte, bs)) {
		t.Fatal("fresh block not zero")
	}
	// write/read round trip
	src := bytes.Repeat([]byte{0xAB}, bs)
	if err := d.WriteBlock(3, src); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := d.ReadBlock(3, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(buf, src) {
		t.Fatal("round trip mismatch")
	}
	// overwrite
	src2 := bytes.Repeat([]byte{0x12}, bs)
	if err := d.WriteBlock(3, src2); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	d.ReadBlock(3, buf)
	if !bytes.Equal(buf, src2) {
		t.Fatal("overwrite not visible")
	}
	// range errors
	if err := d.ReadBlock(d.NumBlocks(), buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read OOB: %v", err)
	}
	if err := d.WriteBlock(-1, src); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write OOB: %v", err)
	}
	// short buffers
	if err := d.ReadBlock(0, buf[:10]); err == nil {
		t.Fatal("short read buffer accepted")
	}
	if err := d.WriteBlock(0, buf[:10]); err == nil {
		t.Fatal("short write buffer accepted")
	}
}

func TestMemDiskBasics(t *testing.T) {
	testDeviceBasics(t, NewMemDisk(16, BlockSize))
}

func TestFileDiskBasics(t *testing.T) {
	d, err := CreateFileDisk(filepath.Join(t.TempDir(), "img"), 16, BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	testDeviceBasics(t, d)
}

func TestMemDiskLazyAllocation(t *testing.T) {
	d := NewMemDisk(1<<20, BlockSize) // "4 GiB" disk
	if d.WrittenBlocks() != 0 {
		t.Fatal("blocks allocated before write")
	}
	buf := make([]byte, BlockSize)
	d.WriteBlock(12345, buf)
	d.WriteBlock(12345, buf)
	if d.WrittenBlocks() != 1 {
		t.Fatalf("WrittenBlocks = %d", d.WrittenBlocks())
	}
}

func TestFileDiskReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img")
	d, err := CreateFileDisk(path, 8, BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.Repeat([]byte{7}, BlockSize)
	d.WriteBlock(5, src)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Close()

	d2, err := OpenFileDisk(path, BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumBlocks() != 8 {
		t.Fatalf("NumBlocks = %d", d2.NumBlocks())
	}
	buf := make([]byte, BlockSize)
	d2.ReadBlock(5, buf)
	if !bytes.Equal(buf, src) {
		t.Fatal("persisted block mismatch")
	}
}

func TestOpenFileDiskRejectsBadSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img")
	d, _ := CreateFileDisk(path, 2, 100) // 200 bytes
	d.Close()
	if _, err := OpenFileDisk(path, BlockSize); err == nil {
		t.Fatal("misaligned image accepted")
	}
	if _, err := OpenFileDisk(filepath.Join(t.TempDir(), "missing"), BlockSize); err == nil {
		t.Fatal("missing image accepted")
	}
}

func TestFingerprintAndDiff(t *testing.T) {
	a := NewMemDisk(64, BlockSize)
	b := NewMemDisk(64, BlockSize)
	fillPattern(t, a, 1, 0.5)
	fillPattern(t, b, 1, 0.5) // same seed → same contents
	fa, err := Fingerprint(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := Fingerprint(b)
	if fa != fb {
		t.Fatal("identical disks fingerprint differently")
	}
	diffs, err := Diff(a, b)
	if err != nil || len(diffs) != 0 {
		t.Fatalf("Diff identical = %v, %v", diffs, err)
	}
	// perturb one block
	buf := bytes.Repeat([]byte{0xEE}, BlockSize)
	b.WriteBlock(17, buf)
	fb2, _ := Fingerprint(b)
	if fa == fb2 {
		t.Fatal("fingerprint blind to change")
	}
	diffs, _ = Diff(a, b)
	if len(diffs) != 1 || diffs[0] != 17 {
		t.Fatalf("Diff = %v, want [17]", diffs)
	}
}

func TestDiffGeometryMismatch(t *testing.T) {
	if _, err := Diff(NewMemDisk(4, BlockSize), NewMemDisk(5, BlockSize)); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestCapacity(t *testing.T) {
	if got := Capacity(NewMemDisk(10, 4096)); got != 40960 {
		t.Fatalf("Capacity = %d", got)
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "READ" || Write.String() != "WRITE" || Op(9).String() == "" {
		t.Fatal("Op.String wrong")
	}
}

func TestMemDiskConcurrent(t *testing.T) {
	d := NewMemDisk(256, BlockSize)
	done := make(chan error, 8)
	for w := 0; w < 4; w++ {
		go func(w int) {
			buf := bytes.Repeat([]byte{byte(w)}, BlockSize)
			for i := 0; i < 200; i++ {
				if err := d.WriteBlock((w*64+i)%256, buf); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
		go func() {
			buf := make([]byte, BlockSize)
			for i := 0; i < 200; i++ {
				if err := d.ReadBlock(i%256, buf); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestMemDiskAllocatedBitmap(t *testing.T) {
	d := NewMemDisk(64, BlockSize)
	if d.AllocatedBitmap().Count() != 0 {
		t.Fatal("fresh disk reports allocated blocks")
	}
	buf := make([]byte, BlockSize)
	for _, n := range []int{0, 7, 63} {
		d.WriteBlock(n, buf)
	}
	bm := d.AllocatedBitmap()
	if bm.Count() != 3 || !bm.Test(7) || bm.Test(8) {
		t.Fatalf("allocation bitmap wrong: %v", bm)
	}
	// reads must not allocate
	d.ReadBlock(30, buf)
	if d.AllocatedBitmap().Count() != 3 {
		t.Fatal("read allocated a block")
	}
}
