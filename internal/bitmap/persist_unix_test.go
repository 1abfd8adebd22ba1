//go:build unix

package bitmap

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestFailedSaveLeavesNoTemp: a save whose write fails part-way — here at a
// file-size limit, as a full disk would — removes its temp file, and the
// previous save still loads unchanged.
func TestFailedSaveLeavesNoTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bm")
	old := samplePersistBitmap(128)
	if err := old.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	var limit syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
		t.Fatal(err)
	}
	small := limit
	small.Cur = 4096 // the Go runtime ignores SIGXFSZ: the write fails with EFBIG
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &small); err != nil {
		t.Skip("cannot lower the file-size limit:", err)
	}
	dense := New(1 << 20) // every other bit: 128 KiB in any encoding
	for i := 0; i < dense.Len(); i += 2 {
		dense.Set(i)
	}
	err := dense.SaveFile(path)
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limit); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil {
		t.Fatal("a save past the file-size limit succeeded")
	}
	if _, serr := os.Stat(path + ".tmp"); !os.IsNotExist(serr) {
		t.Fatalf("the failed save left its temp file behind (%v)", serr)
	}
	got, lerr := LoadFile(path)
	if lerr != nil || !got.Equal(old) {
		t.Fatalf("the previous save no longer loads unchanged (%v)", lerr)
	}
}
