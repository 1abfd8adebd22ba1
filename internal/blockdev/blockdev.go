// Package blockdev provides the virtual block device (VBD) substrate the
// migration engine operates on.
//
// The paper migrates a Xen Virtual Block Device backed by a local SATA disk.
// Here a Device is any fixed-size array of equally-sized blocks addressable
// by block number. Two implementations are provided: MemDisk (RAM-backed,
// used by tests and the paper-scale simulator) and FileDisk (sparse
// file-backed, used by the CLI); Slow gives any device a
// modelled cost per request. Each also serves a run of blocks in one request
// (ExtentDevice). The migration algorithms
// never look below the block interface, which is exactly the transparency
// property the paper claims ("storage migration occurs at the block level;
// the file system cannot observe the migration", §IV-A-4).
package blockdev

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"bbmig/internal/bitmap"
)

// BlockSize is the default block granularity: the paper maps one bitmap bit
// to one 4 KiB block ("modern OS often reads from or writes to disk by a
// group of sectors as a block, usually a 4KB block", §IV-A-2).
const BlockSize = 4096

// SectorSize is the physical sector granularity, used only by the
// granularity ablation (512 B bitmap vs 4 KiB bitmap).
const SectorSize = 512

// Op distinguishes read and write requests.
type Op uint8

const (
	// Read requests copy a block from the device.
	Read Op = iota
	// Write requests overwrite a block on the device.
	Write
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Read:
		return "READ"
	case Write:
		return "WRITE"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Request is an I/O request as seen by the block backend driver: the paper's
// R<O, N, VM> triple (§IV-A-3) plus the data payload for writes.
type Request struct {
	Op     Op
	Block  int    // block number N
	Domain int    // ID of the domain that submitted the request
	Data   []byte // write payload (exactly one block) — nil for reads
}

// ErrOutOfRange is returned for block numbers outside the device.
var ErrOutOfRange = errors.New("blockdev: block number out of range")

// Device is a fixed-geometry virtual block device.
//
// ReadBlock fills dst (len ≥ BlockSize()) with the block's contents;
// WriteBlock replaces the block. Implementations must be safe for concurrent
// use: during post-copy the VM's I/O stream and the migration pusher touch
// the device from different goroutines.
type Device interface {
	// BlockSize returns the block size in bytes.
	BlockSize() int
	// NumBlocks returns the number of blocks on the device.
	NumBlocks() int
	// ReadBlock copies block n into dst, which must be at least BlockSize bytes.
	ReadBlock(n int, dst []byte) error
	// WriteBlock overwrites block n with src, which must be at least BlockSize bytes.
	WriteBlock(n int, src []byte) error
}

// Capacity returns the device size in bytes.
func Capacity(d Device) int64 { return int64(d.BlockSize()) * int64(d.NumBlocks()) }

// Snapshot is a frozen point-in-time view of a Volume. It is a read-only
// Device: ReadBlock always returns the contents the volume held at the
// instant the snapshot was taken, no matter how the live volume has been
// written since; WriteBlock fails with ErrSnapshotReadOnly. Release frees
// the copy-aside storage — every snapshot must be released exactly once,
// and reads after Release fail.
type Snapshot interface {
	Device
	// Release drops the snapshot and frees its copy-aside blocks.
	Release()
}

// Volume is the redesigned storage surface the engine and host daemon
// operate on: a Device that can also freeze consistent point-in-time views
// of itself. Migration pre-copy iterations, dedup scans and hostd pre-sync
// all read a Snapshot while the guest keeps writing the live volume — the
// paper's block-level transparency claim (§IV-A-4) made literal. Release
// flushes any cached dirty state to the backing device and ends the
// volume's lifecycle.
type Volume interface {
	Device
	// Snapshot freezes a point-in-time read-only view of the volume.
	Snapshot() Snapshot
	// Release flushes outstanding dirty state and releases the volume. It
	// fails if snapshots are still outstanding.
	Release() error
}

// ErrSnapshotReadOnly is returned by WriteBlock on a Snapshot.
var ErrSnapshotReadOnly = errors.New("blockdev: snapshot is read-only")

// SnapshotOf freezes a point-in-time view of d when the device is
// snapshot-capable and returns it along with its release function. For a
// plain Device it returns the device itself and a no-op release: callers
// get best-effort live reads, exactly the pre-Volume behaviour, so the
// default engine path is unchanged byte for byte.
func SnapshotOf(d Device) (Device, func()) {
	if v, ok := d.(Volume); ok {
		snap := v.Snapshot()
		return snap, snap.Release
	}
	return d, func() {}
}

// Allocator is implemented by devices that know which blocks hold data.
// Dedup index scans (dedup.Index.ScanReader) read only the blocks it names.
// Handed to core.MigrateSource as the initial bitmap, it also elides
// never-written blocks from the first pre-copy iteration (the paper's §VII
// future-work item: "if the Guest OS ... can tell the migration process
// which part is not used, the amount of migrated data can be reduced
// further"), relying on the destination VBD reading zeros for blocks it
// never receives. With the zero stage on, the engine's send passes also
// send the extents it calls holes as zero runs without reading them.
type Allocator interface {
	// AllocatedBitmap returns a bitmap with one set bit per block that may
	// contain nonzero data.
	AllocatedBitmap() *bitmap.Bitmap
}

// Stamped is implemented by devices that stamp their writes: every write
// takes a stamp no other write in the process has had, so a block whose
// stamp is unchanged holds the bytes it held when the stamp was read. A
// stamp may cover more than the block (MemDisk stamps a lock shard), which
// only makes it change more often. The dedup index trusts an unchanged stamp
// instead of re-hashing what it proved before.
type Stamped interface {
	// ReadStamped copies block n into dst and returns its stamp, taken
	// under the same lock as the copy; 0 means never written.
	ReadStamped(n int, dst []byte) (stamp uint64, err error)
}

// ErrShortBuffer is returned when a buffer cannot hold the blocks a request
// names.
var ErrShortBuffer = errors.New("blockdev: buffer shorter than the request")

// CheckExtent validates a request for blocks [n, n+count) of d against a
// buffer of size bytes. An extent holds at least one block.
func CheckExtent(d Device, n, count, size int) error {
	if n < 0 || count < 1 || n > d.NumBlocks()-count {
		return fmt.Errorf("%w: blocks [%d,+%d) of %d", ErrOutOfRange, n, count, d.NumBlocks())
	}
	if size < count*d.BlockSize() {
		return fmt.Errorf("%w: %d bytes for %d blocks of %d", ErrShortBuffer, size, count, d.BlockSize())
	}
	return nil
}

// ExtentDevice is implemented by devices that move a run of consecutive
// blocks in one request: biscuit's list-of-blocks request, here an extent.
// ReadExtent fills dst[:count*BlockSize()] with blocks [n, n+count);
// WriteExtent overwrites them from src. Each block lands whole, as it does
// through WriteBlock. The four Device methods stay the minimum: ReadExtent
// and WriteExtent below serve any device, one call per block when it does
// not implement this.
type ExtentDevice interface {
	Device
	ReadExtent(n, count int, dst []byte) error
	WriteExtent(n, count int, src []byte) error
}

// ReadExtent reads blocks [n, n+count) of d into dst: in one request when d
// is an ExtentDevice, otherwise block by block.
func ReadExtent(d Device, n, count int, dst []byte) error {
	if e, ok := d.(ExtentDevice); ok {
		return e.ReadExtent(n, count, dst)
	}
	return eachBlock(d, n, count, dst, d.ReadBlock)
}

// WriteExtent writes blocks [n, n+count) of d from src: in one request when
// d is an ExtentDevice, otherwise block by block.
func WriteExtent(d Device, n, count int, src []byte) error {
	if e, ok := d.(ExtentDevice); ok {
		return e.WriteExtent(n, count, src)
	}
	return eachBlock(d, n, count, src, d.WriteBlock)
}

// eachBlock is the per-block fallback of ReadExtent and WriteExtent.
func eachBlock(d Device, n, count int, buf []byte, io func(int, []byte) error) error {
	if err := CheckExtent(d, n, count, len(buf)); err != nil {
		return err
	}
	bs := d.BlockSize()
	for k := 0; k < count; k++ {
		if err := io(n+k, buf[k*bs:(k+1)*bs]); err != nil {
			return err
		}
	}
	return nil
}

// RunBlocks is the lock granularity of the run-sharded devices (MemDisk and
// the bcache views): blocks are grouped into aligned runs of RunBlocks, a run
// lives in one shard, and an extent inside one run takes one lock.
const RunBlocks = 64

// EachRun calls fn once for every piece [lo, hi) of [n, n+count) that lies
// inside one run, in order, and stops at the first error.
func EachRun(n, count int, fn func(lo, hi int) error) error {
	for lo, end := n, n+count; lo < end; {
		hi := min(lo-lo%RunBlocks+RunBlocks, end)
		if err := fn(lo, hi); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// scanBufs recycles the buffer pair used by whole-device scans so that
// Fingerprint and Diff — which hostd now runs repeatedly against snapshots —
// stop allocating a run-sized buffer (or two) per call.
var scanBufs = sync.Pool{New: func() any {
	p := new([2][]byte)
	p[0] = make([]byte, RunBlocks*BlockSize)
	p[1] = make([]byte, RunBlocks*BlockSize)
	return p
}}

// getScanBufs returns a pooled buffer pair sized for a run of bs-byte blocks.
func getScanBufs(bs int) *[2][]byte {
	p := scanBufs.Get().(*[2][]byte)
	if size := RunBlocks * bs; cap(p[0]) < size {
		p[0] = make([]byte, size)
		p[1] = make([]byte, size)
	}
	return p
}

// Fingerprint hashes the full device contents, read a run at a time. Tests
// use it to assert the paper's consistency requirement: after migration the
// source and destination disks are bit-identical.
func Fingerprint(d Device) ([32]byte, error) {
	h := sha256.New()
	bufs := getScanBufs(d.BlockSize())
	defer scanBufs.Put(bufs)
	for n := 0; n < d.NumBlocks(); n += RunBlocks {
		count := min(RunBlocks, d.NumBlocks()-n)
		buf := bufs[0][:count*d.BlockSize()]
		if err := ReadExtent(d, n, count, buf); err != nil {
			return [32]byte{}, fmt.Errorf("fingerprint blocks [%d,+%d): %w", n, count, err)
		}
		h.Write(buf)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out, nil
}

// Diff returns the block numbers at which two devices differ. It returns an
// error if geometries differ. When both are Allocators only the blocks either
// holds data at are read: a sparse disk costs its footprint, not its size.
// Either way the held blocks are read in extents of at most a run.
func Diff(a, b Device) ([]int, error) {
	if a.BlockSize() != b.BlockSize() || a.NumBlocks() != b.NumBlocks() {
		return nil, fmt.Errorf("blockdev: geometry mismatch: %dx%d vs %dx%d",
			a.NumBlocks(), a.BlockSize(), b.NumBlocks(), b.BlockSize())
	}
	held := bitmap.NewAllSet(a.NumBlocks())
	if aa, ok := a.(Allocator); ok {
		if ab, ok := b.(Allocator); ok {
			held = aa.AllocatedBitmap()
			held.Union(ab.AllocatedBitmap())
		}
	}
	var diffs []int
	bs := a.BlockSize()
	bufs := getScanBufs(bs)
	defer scanBufs.Put(bufs)
	for ext := held.NextExtent(0, RunBlocks); ext.Count > 0; ext = held.NextExtent(ext.End(), RunBlocks) {
		ba, bb := bufs[0][:ext.Count*bs], bufs[1][:ext.Count*bs]
		if err := ReadExtent(a, ext.Start, ext.Count, ba); err != nil {
			return nil, err
		}
		if err := ReadExtent(b, ext.Start, ext.Count, bb); err != nil {
			return nil, err
		}
		for k := 0; k < ext.Count; k++ {
			if !bytes.Equal(ba[k*bs:(k+1)*bs], bb[k*bs:(k+1)*bs]) {
				diffs = append(diffs, ext.Start+k)
			}
		}
	}
	return diffs, nil
}
