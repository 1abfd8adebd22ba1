package bitmap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// persistMagic prefixes a checksummed bitmap file: magic, CRC-32 (IEEE) of
// the marshalled bitmap, then the bitmap itself. The checksum turns a torn
// or partial write — the failure mode the atomic rename cannot cover on
// every filesystem — into a load error instead of a silently wrong dirty
// set, which for an incremental migration would mean silently missing
// blocks.
var persistMagic = [4]byte{'B', 'B', 'M', '1'}

// SaveFile writes the bitmap to path atomically (write-to-temp + rename)
// with a leading checksum, so a crash mid-save leaves either the old bitmap
// or the new one — never a torn file that loads — and corruption is detected
// on load. It is the one on-disk form of migration state: the destination's
// fresh-write bitmap, so an incremental migration back works across daemon
// restarts, and the source's journal of blocks still owed, so a crashed
// source resumes incrementally.
func (b *Bitmap) SaveFile(path string) error {
	data, err := b.MarshalBinary()
	if err != nil {
		return err
	}
	out := make([]byte, 8, 8+len(data))
	copy(out, persistMagic[:])
	binary.LittleEndian.PutUint32(out[4:], crc32.ChecksumIEEE(data))
	out = append(out, data...)
	if err := atomicWriteFile(path, out); err != nil {
		return fmt.Errorf("bitmap: save: %w", err)
	}
	return nil
}

// atomicWriteFile is SaveFile's crash discipline: write a sibling temp file
// and fsync it, rename it over the target, then fsync the directory, so a
// crash — a power cut included — leaves either the old contents or the new,
// never a torn file that silently loads. A save that fails before the rename
// removes its temp file and leaves the target as it was.
func atomicWriteFile(path string, data []byte) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	_, err = f.Write(data)
	if serr := f.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("rename: %w", err)
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// LoadFile reads a bitmap previously written by SaveFile. Files from the
// pre-checksum format (a bare marshalled bitmap) still load; checksummed
// files fail loudly on any truncation or corruption.
func LoadFile(path string) (*Bitmap, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bitmap: load: %w", err)
	}
	if len(data) >= 8 && [4]byte(data[:4]) == persistMagic {
		body := data[8:]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[4:]) {
			return nil, fmt.Errorf("bitmap: load %s: checksum mismatch (torn write?)", path)
		}
		data = body
	}
	b := &Bitmap{}
	if err := b.UnmarshalBinary(data); err != nil {
		return nil, fmt.Errorf("bitmap: load %s: %w", path, err)
	}
	return b, nil
}
