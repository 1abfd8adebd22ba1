package blockdev

import (
	"fmt"
	"os"
)

// FileDisk is a Device backed by a file, created sparse so large VBD images
// do not consume physical space until written. It is what cmd/bbmig uses to
// hold real disk images on both ends of a TCP migration. An extent is one
// pread or pwrite; the file's offsets need no lock.
type FileDisk struct {
	f         *os.File
	blockSize int
	numBlocks int
}

// CreateFileDisk creates (or truncates) path as a sparse image with the given
// geometry.
func CreateFileDisk(path string, numBlocks, blockSize int) (*FileDisk, error) {
	if numBlocks < 0 || blockSize <= 0 {
		return nil, fmt.Errorf("blockdev: bad geometry %dx%d", numBlocks, blockSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blockdev: create image: %w", err)
	}
	if err := f.Truncate(int64(numBlocks) * int64(blockSize)); err != nil {
		f.Close()
		return nil, fmt.Errorf("blockdev: size image: %w", err)
	}
	return &FileDisk{f: f, blockSize: blockSize, numBlocks: numBlocks}, nil
}

// OpenFileDisk opens an existing image whose size must be an exact multiple
// of blockSize.
func OpenFileDisk(path string, blockSize int) (*FileDisk, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("blockdev: bad block size %d", blockSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("blockdev: open image: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("blockdev: stat image: %w", err)
	}
	if st.Size()%int64(blockSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("blockdev: image size %d not a multiple of block size %d", st.Size(), blockSize)
	}
	return &FileDisk{f: f, blockSize: blockSize, numBlocks: int(st.Size() / int64(blockSize))}, nil
}

// BlockSize implements Device.
func (d *FileDisk) BlockSize() int { return d.blockSize }

// NumBlocks implements Device.
func (d *FileDisk) NumBlocks() int { return d.numBlocks }

// ReadBlock implements Device: the one-block ReadExtent.
func (d *FileDisk) ReadBlock(n int, dst []byte) error { return d.ReadExtent(n, 1, dst) }

// WriteBlock implements Device: the one-block WriteExtent.
func (d *FileDisk) WriteBlock(n int, src []byte) error { return d.WriteExtent(n, 1, src) }

// ReadExtent implements ExtentDevice with one pread.
func (d *FileDisk) ReadExtent(n, count int, dst []byte) error {
	if err := CheckExtent(d, n, count, len(dst)); err != nil {
		return err
	}
	if _, err := d.f.ReadAt(dst[:count*d.blockSize], int64(n)*int64(d.blockSize)); err != nil {
		return fmt.Errorf("blockdev: read blocks [%d,+%d): %w", n, count, err)
	}
	return nil
}

// WriteExtent implements ExtentDevice with one pwrite.
func (d *FileDisk) WriteExtent(n, count int, src []byte) error {
	if err := CheckExtent(d, n, count, len(src)); err != nil {
		return err
	}
	if _, err := d.f.WriteAt(src[:count*d.blockSize], int64(n)*int64(d.blockSize)); err != nil {
		return fmt.Errorf("blockdev: write blocks [%d,+%d): %w", n, count, err)
	}
	return nil
}

// Sync flushes the image to stable storage.
func (d *FileDisk) Sync() error { return d.f.Sync() }

// Close closes the underlying image file.
func (d *FileDisk) Close() error { return d.f.Close() }
