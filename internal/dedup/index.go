package dedup

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"bbmig/internal/blockdev"
	"bbmig/internal/transport"
)

// BlockReader is the slice of blockdev.Device an Index needs from a content
// source: random-access block reads plus shape. blockdev.MemDisk and
// blockdev.FileDisk both satisfy it.
type BlockReader interface {
	// ReadBlock copies block n into buf (len(buf) == BlockSize()).
	ReadBlock(n int, buf []byte) error
	// NumBlocks is the device size in blocks.
	NumBlocks() int
	// BlockSize is the block size in bytes.
	BlockSize() int
}

// loc names where one fingerprint's content can be read back: a block of a
// registered source, and the source's write stamp when the content was last
// proved there (0: never proved against a blockdev.Stamped device).
type loc struct {
	source string
	block  int
	stamp  uint64
}

// Index maps block fingerprints to locations where the content can be read
// back — the destination side of content-addressed transfer. Sources are
// named block devices (retained peer copies, hosted clone disks, the live
// VBD of an in-flight migration); entries are observations "source S held
// content H at block N when we looked".
//
// Observations are advisory: guest writes move content underneath the index
// all the time. LookupInto therefore proves the candidate block before it
// claims the content — by a write stamp unchanged since the content was
// proved there (blockdev.Stamped), else by re-reading and re-hashing it — and
// evicts entries that no longer verify, so the worst a stale index can cause
// is a literal send that deduplication would have saved — never wrong bytes.
//
// An Index is safe for concurrent use and is meant to be shared: one
// hostd.Machine maintains one index across every inbound migration and
// pre-sync it serves.
type Index struct {
	mu        sync.Mutex
	blockSize int
	zero      Fingerprint
	zeroBlock []byte // shared and read-only, see zeroContent
	sources   map[string]BlockReader
	entries   map[Fingerprint]loc
	// rev is entries inverted: rev[s][b] is fp exactly while entries[fp]
	// points at block b of source s, so it grows with the distinct content,
	// not with the blocks observed, and an overwrite, a failed proof or a
	// dropped source finds the entry to retract through it.
	rev map[string]map[int]Fingerprint

	hashes, lookups, vouched, scanSkipped, reused atomic.Int64 // see Stats
}

// Stats counts the work an Index has done since it was made. The counts do
// not depend on the machine, so work a change removes shows as a number.
type Stats struct {
	Hashes      int64 // SHA-256 calls: scanned, observed and re-verified blocks
	Lookups     int64 // verify-on-read lookups of a non-zero fingerprint
	Vouched     int64 // lookups an unchanged write stamp served unhashed
	ScanSkipped int64 // blocks a scan did not hash: never written, or zero
	Reused      int64 // scanned blocks a Memo served an earlier block's fingerprint
}

// Stats returns the index's counters.
func (ix *Index) Stats() Stats {
	return Stats{ix.hashes.Load(), ix.lookups.Load(), ix.vouched.Load(), ix.scanSkipped.Load(), ix.reused.Load()}
}

// hash is Of, counted.
func (ix *Index) hash(data []byte) Fingerprint {
	ix.hashes.Add(1)
	return Of(data)
}

// NewIndex returns an empty index for devices of the given block size.
func NewIndex(blockSize int) *Index {
	if blockSize <= 0 {
		panic(fmt.Sprintf("dedup: block size %d", blockSize))
	}
	z := zeroOf(blockSize)
	return &Index{
		blockSize: blockSize,
		zero:      z.fp,
		zeroBlock: z.block,
		sources:   make(map[string]BlockReader),
		entries:   make(map[Fingerprint]loc),
		rev:       make(map[string]map[int]Fingerprint),
	}
}

// BlockSize returns the block size the index was built for.
func (ix *Index) BlockSize() int { return ix.blockSize }

// RegisterSource makes (or re-makes) a named device available for lookups.
// Entries previously observed under the same name become resolvable
// again; registering does not scan — call ScanSource for that.
func (ix *Index) RegisterSource(name string, dev BlockReader) error {
	if dev.BlockSize() != ix.blockSize {
		return fmt.Errorf("dedup: source %q block size %d, index %d", name, dev.BlockSize(), ix.blockSize)
	}
	ix.mu.Lock()
	ix.sources[name] = dev
	ix.mu.Unlock()
	return nil
}

// DropSource unregisters a source and evicts every entry observed on it.
func (ix *Index) DropSource(name string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	delete(ix.sources, name)
	for _, fp := range ix.rev[name] {
		delete(ix.entries, fp)
	}
	delete(ix.rev, name)
}

// Observe records that the named source held content fp at block. Zero
// fingerprints are not stored (the zero block is implicit); an overwrite of
// a block retracts the entry its previous content claimed there. It does not
// displace an entry a write stamp vouches for: that content stays claimed
// where it was proved, not on a migration's throwaway destination disk.
func (ix *Index) Observe(source string, block int, fp Fingerprint) {
	ix.observe(source, block, fp, 0)
}

// ObserveContent is Observe of data's fingerprint, hashed and counted here.
func (ix *Index) ObserveContent(source string, block int, data []byte) {
	ix.Observe(source, block, ix.hash(data))
}

// observe is Observe of content proved at a write stamp (0: none), which
// displaces any entry.
func (ix *Index) observe(source string, block int, fp Fingerprint, stamp uint64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if prev, ok := ix.rev[source][block]; ok && prev != fp {
		delete(ix.entries, prev) // rev names the block only while prev's entry is there
		delete(ix.rev[source], block)
	}
	cur, ok := ix.entries[fp]
	if fp == ix.zero || (ok && cur.stamp != 0 && stamp == 0) {
		return
	}
	if ok {
		delete(ix.rev[cur.source], cur.block)
	}
	ix.entries[fp] = loc{source, block, stamp}
	if ix.rev[source] == nil {
		ix.rev[source] = make(map[int]Fingerprint)
	}
	ix.rev[source][block] = fp
}

// ScanSource fingerprints every block of a registered source and records the
// observations, returning how many non-zero blocks it indexed. Call it once
// when a retained or clone disk first joins the index; later migrations keep
// the index warm through their own observations.
func (ix *Index) ScanSource(name string) (int, error) {
	ix.mu.Lock()
	dev := ix.sources[name]
	ix.mu.Unlock()
	if dev == nil {
		return 0, fmt.Errorf("dedup: scan of unregistered source %q", name)
	}
	return ix.ScanReader(name, dev)
}

// ScanReader is ScanSource reading a caller-supplied view instead of the
// registered device. Hosts pass a frozen snapshot of a live volume: the scan
// comes off the guest's hot path and sees a consistent image, and lookups
// still prove against the live device, so a block the guest overwrites
// mid-scan misses later, never resolves to wrong bytes. Only a scan of the
// registered device itself records write stamps, and only such a scan of a
// blockdev.Stamped device hashes each distinct content once (Memo).
//
// Zero content is implicit, so the scan never hashes it: blocks a
// blockdev.Allocator reader reports never written are not read, and a read
// block is compared with zero before it is hashed.
func (ix *Index) ScanReader(name string, r BlockReader) (indexed int, err error) {
	var memo Memo // stamps and reuses only on the registered device itself
	ix.mu.Lock()
	if s, ok := r.(blockdev.Stamped); ok && reflect.TypeOf(r).Comparable() && ix.sources[name] == r {
		memo.Dev = s
	}
	ix.mu.Unlock()
	defer func() { ix.hashes.Add(memo.Hashes); ix.reused.Add(int64(indexed) - memo.Hashes) }()
	next := func(n int) int {
		if n < r.NumBlocks() {
			return n
		}
		return -1
	}
	if a, ok := r.(blockdev.Allocator); ok {
		next = a.AllocatedBitmap().NextSet
	}
	buf := make([]byte, ix.blockSize)
	for n := next(0); n >= 0; n = next(n + 1) {
		stamp, err := readStamped(r, memo.Dev != nil, n, buf)
		if err != nil {
			return indexed, err
		}
		if IsZero(buf) {
			continue
		}
		ix.observe(name, n, memo.Of(n, buf, stamp), stamp)
		indexed++
	}
	ix.scanSkipped.Add(int64(r.NumBlocks() - indexed))
	return indexed, nil
}

// LookupInto materializes the content behind fp into dst (one block long),
// or reports that the index cannot; dst is scratch either way. The zero
// fingerprint always succeeds. Any other hit re-reads the recorded block,
// and re-hashes it unless its write stamp is the one the entry was proved
// at; a mismatch (the block was overwritten since) evicts the entry and
// misses, a match vouches for it at the stamp read. Callers can trust the
// bytes of a hit unconditionally.
func (ix *Index) LookupInto(fp Fingerprint, dst []byte) bool {
	if fp == ix.zero {
		clear(dst)
		return true
	}
	ix.lookups.Add(1)
	ix.mu.Lock()
	l, ok := ix.entries[fp]
	dev := ix.sources[l.source]
	ix.mu.Unlock()
	if !ok || dev == nil {
		return false
	}
	stamp, err := readStamped(dev, true, l.block, dst)
	if err == nil && stamp != 0 && stamp == l.stamp {
		ix.vouched.Add(1)
		return true
	}
	return ix.settle(fp, l, stamp, err == nil && ix.hash(dst) == fp)
}

// readStamped reads block n of r into dst, with its write stamp when vouch
// is set and r is blockdev.Stamped, else stamp 0.
func readStamped(r BlockReader, vouch bool, n int, dst []byte) (uint64, error) {
	if n < 0 || n >= r.NumBlocks() {
		return 0, blockdev.ErrOutOfRange
	}
	if s, ok := r.(blockdev.Stamped); ok && vouch {
		return s.ReadStamped(n, dst)
	}
	return 0, r.ReadBlock(n, dst)
}

// Stage is the content one advert staged for the destination to write at
// that advert: one block-sized slot per advertised position in a single
// pooled buffer, captured when the advert is answered so it cannot be
// overwritten underneath. It belongs to one destination session — the Index
// is shared by concurrent inbound migrations, a Stage never is — and the next
// advert replaces it wholesale: the destination writes an advert's content
// before it answers the next. The zero value is an empty stage.
type Stage struct {
	buf   []byte              // pooled; slot k is buf[k*blockSize:][:blockSize]
	slots map[Fingerprint]int // staged fingerprint → its slot
	want  []byte              // the advert's want-bitmap, reused
}

// reset empties the stage for an advert of count blocks. The old buffer goes
// back to the pool first: content read after its advert was replaced is a
// bug, and the pool's poison mode makes it a visible one.
func (st *Stage) reset(count, blockSize int) {
	st.Release()
	st.buf = transport.GetBuf(count * blockSize)
	if st.slots == nil {
		st.slots = make(map[Fingerprint]int, count)
	}
	st.want = append(st.want[:0], make([]byte, WantLen(count))...) // zeroed, reused
}

// Release returns the stage's buffer to the pool and forgets its content.
// The session calls it when it ends; the stage stays usable.
func (st *Stage) Release() {
	transport.PutBuf(st.buf)
	st.buf = nil
	clear(st.slots)
}

// Answer is AnswerInto on a fresh Stage the caller keeps (and never has to
// release: an unreleased stage is simply garbage collected).
func (ix *Index) Answer(fps []Fingerprint) (want []byte, stage *Stage) {
	stage = new(Stage)
	return ix.AnswerInto(stage, fps), stage
}

// AnswerInto is the destination's half of one MsgHashAdvert: st is emptied,
// every advertised fingerprint the index can produce is verified (LookupInto's
// proof) straight into its slot of st, and everything else gets its want
// bit set. Zero fingerprints are neither wanted nor staged — zeros are
// implicit. The returned want-bitmap belongs to st and is valid until st's
// next advert. Both the engine's receive loop and ServeSync answer adverts
// through here, so the reply semantics cannot diverge.
func (ix *Index) AnswerInto(st *Stage, fps []Fingerprint) (want []byte) {
	st.reset(len(fps), ix.blockSize)
	for k, fp := range fps {
		if _, staged := st.slots[fp]; staged || fp == ix.zero {
			continue
		}
		if ix.LookupInto(fp, st.buf[k*ix.blockSize:(k+1)*ix.blockSize]) {
			st.slots[fp] = k
		} else {
			SetWant(st.want, k)
		}
	}
	return st.want
}

// Materialize returns the content behind fp that an answered advert left
// unwanted: staged content, or zeros. ok is false for any other fingerprint:
// never a silent wrong write. The content is read-only and borrowed: staged
// content lives until st's next advert, and zeros are one block shared
// process-wide.
func (ix *Index) Materialize(st *Stage, fp Fingerprint) (content []byte, ok bool) {
	if fp == ix.zero {
		return ix.zeroBlock, true
	}
	if st != nil {
		if k, ok := st.slots[fp]; ok {
			return st.buf[k*ix.blockSize : (k+1)*ix.blockSize], true
		}
	}
	return nil, false
}

// settle ends a lookup that re-read fp's entry l: proved, l is vouched for at
// stamp, else evicted — either only while l is still fp's entry.
func (ix *Index) settle(fp Fingerprint, l loc, stamp uint64, proved bool) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if cur, ok := ix.entries[fp]; !ok || cur != l {
		return proved
	}
	if proved {
		ix.entries[fp] = loc{l.source, l.block, stamp}
		return true
	}
	delete(ix.entries, fp)
	delete(ix.rev[l.source], l.block)
	return false
}
