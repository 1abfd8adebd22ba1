package blockdev_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"bbmig/internal/blockdev"
	"bbmig/internal/blockdev/bcache"
)

// plain hides a device's extent methods, so the package helpers take their
// per-block fallback.
type plain struct{ blockdev.Device }

// extentDevices builds each device under test with the given geometry: the
// three extent-capable devices, the live view of a bcache volume small
// enough to evict, and a plain wrapper that leaves ReadExtent and
// WriteExtent to the per-block loop.
func extentDevices(t *testing.T, blocks, bs int) map[string]blockdev.Device {
	t.Helper()
	file, err := blockdev.CreateFileDisk(filepath.Join(t.TempDir(), "img"), blocks, bs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { file.Close() })
	return map[string]blockdev.Device{
		"memdisk":  blockdev.NewMemDisk(blocks, bs),
		"filedisk": file,
		"bcache":   bcache.New(blockdev.NewMemDisk(blocks, bs), 48),
		"plain":    plain{blockdev.NewMemDisk(blocks, bs)},
	}
}

// randomExtent picks an extent of up to 3 runs, so most cross a run boundary.
func randomExtent(rng *rand.Rand, blocks int) (n, count int) {
	n = rng.Intn(blocks)
	return n, 1 + rng.Intn(min(3*blockdev.RunBlocks, blocks-n))
}

// TestExtentIOMatchesPerBlock drives each device with random extents,
// written and read either in one extent request or block by block, against a
// byte model: the two paths are the same device in both directions. The
// bcache volume's snapshot view is held to the image at the moment it was
// taken, read both ways, while the live volume keeps being written.
func TestExtentIOMatchesPerBlock(t *testing.T) {
	const blocks, bs = 300, 32
	for name, dev := range extentDevices(t, blocks, bs) {
		t.Run(name, func(t *testing.T) {
			if _, ok := dev.(blockdev.ExtentDevice); ok == (name == "plain") {
				t.Fatalf("ExtentDevice: %v", ok)
			}
			rng := rand.New(rand.NewSource(int64(len(name))))
			model := make([]byte, blocks*bs)
			var snap blockdev.Snapshot
			var frozen []byte
			for op := 0; op < 400; op++ {
				if vol, ok := dev.(blockdev.Volume); ok && op == 200 {
					snap, frozen = vol.Snapshot(), bytes.Clone(model)
				}
				n, count := randomExtent(rng, blocks)
				buf := make([]byte, count*bs)
				if op%2 == 0 {
					rng.Read(buf)
					copy(model[n*bs:], buf)
					if err := writeEither(dev, rng.Intn(2) == 0, n, count, buf); err != nil {
						t.Fatalf("op %d: write [%d,+%d): %v", op, n, count, err)
					}
					continue
				}
				view, want := blockdev.Device(dev), model
				if snap != nil && rng.Intn(2) == 0 {
					view, want = snap, frozen
				}
				if err := readEither(view, rng.Intn(2) == 0, n, count, buf); err != nil {
					t.Fatalf("op %d: read [%d,+%d): %v", op, n, count, err)
				}
				if !bytes.Equal(buf, want[n*bs:(n+count)*bs]) {
					t.Fatalf("op %d: [%d,+%d) reads other bytes than were written", op, n, count)
				}
			}
			if snap != nil {
				if _, ok := snap.(blockdev.ExtentDevice); !ok {
					t.Error("the snapshot view is not an ExtentDevice")
				}
				if err := blockdev.WriteExtent(snap, 0, 1, make([]byte, bs)); !errors.Is(err, blockdev.ErrSnapshotReadOnly) {
					t.Errorf("snapshot WriteExtent: %v, want ErrSnapshotReadOnly", err)
				}
				checkErrors(t, "snapshot", snap)
				snap.Release()
			}
			checkErrors(t, name, dev)
		})
	}
}

// writeEither writes [n, n+count) from buf in one extent request or block by
// block.
func writeEither(d blockdev.Device, extent bool, n, count int, buf []byte) error {
	if extent {
		return blockdev.WriteExtent(d, n, count, buf)
	}
	bs := d.BlockSize()
	for k := 0; k < count; k++ {
		if err := d.WriteBlock(n+k, buf[k*bs:(k+1)*bs]); err != nil {
			return err
		}
	}
	return nil
}

// readEither reads [n, n+count) into buf in one extent request or block by
// block.
func readEither(d blockdev.Device, extent bool, n, count int, buf []byte) error {
	if extent {
		return blockdev.ReadExtent(d, n, count, buf)
	}
	bs := d.BlockSize()
	for k := 0; k < count; k++ {
		if err := d.ReadBlock(n+k, buf[k*bs:(k+1)*bs]); err != nil {
			return err
		}
	}
	return nil
}

// checkErrors holds both extent helpers to the per-block methods' errors:
// an extent that starts or ends outside the device, or holds no block, is
// ErrOutOfRange; a buffer shorter than the extent is ErrShortBuffer.
func checkErrors(t *testing.T, name string, d blockdev.Device) {
	t.Helper()
	blocks, bs := d.NumBlocks(), d.BlockSize()
	buf := make([]byte, 4*bs)
	for _, c := range []struct {
		n, count, size int
		want           error
	}{
		{-1, 2, 2 * bs, blockdev.ErrOutOfRange},
		{blocks - 1, 2, 2 * bs, blockdev.ErrOutOfRange},
		{blocks, 1, bs, blockdev.ErrOutOfRange},
		{0, 0, bs, blockdev.ErrOutOfRange},
		{0, 3, 3*bs - 1, blockdev.ErrShortBuffer},
		{blockdev.RunBlocks - 1, 2, bs, blockdev.ErrShortBuffer},
	} {
		if err := blockdev.ReadExtent(d, c.n, c.count, buf[:c.size]); !errors.Is(err, c.want) {
			t.Errorf("%s: ReadExtent(%d, %d, %d bytes) = %v, want %v", name, c.n, c.count, c.size, err, c.want)
		}
		if _, ro := d.(blockdev.Snapshot); ro {
			continue
		}
		if err := blockdev.WriteExtent(d, c.n, c.count, buf[:c.size]); !errors.Is(err, c.want) {
			t.Errorf("%s: WriteExtent(%d, %d, %d bytes) = %v, want %v", name, c.n, c.count, c.size, err, c.want)
		}
	}
}

// TestReadBlockNeverTorn runs ReadBlock on readers alongside WriteExtent on
// a writer that rewrites three runs, each block filled with one generation
// byte: every block a reader sees holds one generation throughout. Under
// -race it also checks the devices' locking.
func TestReadBlockNeverTorn(t *testing.T) {
	const blocks, bs, gens, readers = 3 * blockdev.RunBlocks, blockdev.BlockSize, 100, 3
	for name, dev := range extentDevices(t, blocks, bs) {
		if name == "filedisk" {
			continue // pread and pwrite make no atomicity promise against each other
		}
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			done := make(chan struct{})
			errs := make(chan error, readers)
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng, buf := rand.New(rand.NewSource(seed)), make([]byte, bs)
					for {
						select {
						case <-done:
							return
						default:
						}
						n := rng.Intn(blocks)
						if err := dev.ReadBlock(n, buf); err != nil {
							errs <- err
							return
						}
						if !bytes.Equal(buf, bytes.Repeat(buf[:1], bs)) {
							errs <- fmt.Errorf("block %d torn: starts %#x, holds %#x", n, buf[0], buf[bs-1])
							return
						}
					}
				}(int64(r))
			}
			src := make([]byte, blocks*bs)
			for g := 1; g <= gens; g++ {
				for i := range src {
					src[i] = byte(g)
				}
				if err := blockdev.WriteExtent(dev, 0, blocks, src); err != nil {
					t.Error(err)
					break
				}
			}
			close(done)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}
