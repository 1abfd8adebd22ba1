package dedup

import (
	"fmt"
	"sync"

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
// registered source.
type loc struct {
	source string
	block  int
}

// Index maps block fingerprints to locations where the content can be read
// back — the destination side of content-addressed transfer. Sources are
// named block devices (retained peer copies, hosted clone disks, the live
// VBD of an in-flight migration); entries are observations "source S held
// content H at block N when we looked".
//
// Observations are advisory: guest writes move content underneath the index
// all the time. Lookup therefore re-reads and re-hashes the candidate block
// before claiming the content, evicting entries that no longer verify, so
// the worst a stale index can cause is a literal send that deduplication
// would have saved — never wrong bytes.
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
	rev       map[string]map[int]Fingerprint // source → block → observed fp
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

// Len reports how many fingerprints are currently indexed (the implicit
// zero fingerprint not counted).
func (ix *Index) Len() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.entries)
}

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
	for block, fp := range ix.rev[name] {
		if l, ok := ix.entries[fp]; ok && l.source == name && l.block == block {
			delete(ix.entries, fp)
		}
	}
	delete(ix.rev, name)
}

// Observe records that the named source held content fp at block. Zero
// fingerprints are not stored (the zero block is implicit); an overwrite of
// a block retracts the entry its previous content claimed there.
func (ix *Index) Observe(source string, block int, fp Fingerprint) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.observeLocked(source, block, fp)
}

func (ix *Index) observeLocked(source string, block int, fp Fingerprint) {
	blocks := ix.rev[source]
	if blocks == nil {
		blocks = make(map[int]Fingerprint)
		ix.rev[source] = blocks
	}
	if prev, ok := blocks[block]; ok && prev != fp {
		if l, ok := ix.entries[prev]; ok && l.source == source && l.block == block {
			delete(ix.entries, prev)
		}
	}
	if fp == ix.zero {
		delete(blocks, block)
		return
	}
	blocks[block] = fp
	ix.entries[fp] = loc{source, block}
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

// ScanReader fingerprints every block of r and records the observations
// under source name, like ScanSource, but reading from a caller-supplied
// view instead of the registered device. Hosts pass a frozen snapshot of a
// live volume here: the scan comes off the guest's hot path and observes a
// consistent image, while lookups still verify against the registered live
// device, so an observation the guest overwrites mid-scan simply misses
// later (it can never resolve to wrong bytes).
func (ix *Index) ScanReader(name string, r BlockReader) (int, error) {
	buf := make([]byte, ix.blockSize)
	indexed := 0
	for n := 0; n < r.NumBlocks(); n++ {
		if err := r.ReadBlock(n, buf); err != nil {
			return indexed, err
		}
		fp := Of(buf)
		if fp == ix.zero {
			continue
		}
		ix.Observe(name, n, fp)
		indexed++
	}
	return indexed, nil
}

// Lookup materializes the content behind fp in a freshly allocated block the
// caller keeps, or reports that the index cannot. See LookupInto.
func (ix *Index) Lookup(fp Fingerprint) ([]byte, bool) {
	buf := make([]byte, ix.blockSize)
	if !ix.LookupInto(fp, buf) {
		return nil, false
	}
	return buf, true
}

// LookupInto materializes the content behind fp into dst (one block long),
// or reports that the index cannot; dst is scratch either way. The zero
// fingerprint always succeeds. Any other hit re-reads the recorded block and
// re-hashes it; a mismatch (the block was overwritten since the observation)
// evicts the entry and reports a miss, so callers can trust the bytes of a
// hit unconditionally.
func (ix *Index) LookupInto(fp Fingerprint, dst []byte) bool {
	if fp == ix.zero {
		clear(dst)
		return true
	}
	ix.mu.Lock()
	l, ok := ix.entries[fp]
	var dev BlockReader
	if ok {
		dev = ix.sources[l.source]
	}
	ix.mu.Unlock()
	if !ok || dev == nil {
		return false
	}
	if l.block < 0 || l.block >= dev.NumBlocks() || dev.ReadBlock(l.block, dst) != nil || Of(dst) != fp {
		ix.evict(fp, l)
		return false
	}
	return true
}

// Stage is the content one advert staged for the references that follow it:
// one block-sized slot per advertised position in a single pooled buffer,
// captured at advert time so it cannot be overwritten underneath. It belongs
// to one destination session — the Index is shared by concurrent inbound
// migrations, a Stage never is — and the next advert replaces it wholesale,
// which the protocol allows because a reference only ever names the advert
// immediately before it. The zero value is an empty stage.
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
	if n := WantLen(count); cap(st.want) < n {
		st.want = make([]byte, n)
	} else {
		st.want = st.want[:n]
		clear(st.want)
	}
}

// Release returns the stage's buffer to the pool and forgets its content.
// The session calls it when it ends; the stage stays usable.
func (st *Stage) Release() {
	transport.PutBuf(st.buf)
	st.buf = nil
	clear(st.slots)
}

// Put stages content (one block, already verified against fp) in slot k of
// the current advert — how swarm-fetched blocks join locally produced ones.
func (st *Stage) Put(k int, fp Fingerprint, content []byte) {
	copy(st.buf[k*len(content):(k+1)*len(content)], content)
	st.slots[fp] = k
}

// Answer is AnswerInto on a fresh Stage the caller keeps (and never has to
// release: an unreleased stage is simply garbage collected).
func (ix *Index) Answer(fps []Fingerprint) (want []byte, stage *Stage) {
	stage = new(Stage)
	return ix.AnswerInto(stage, fps), stage
}

// AnswerInto is the destination's half of one MsgHashAdvert: st is emptied,
// every advertised fingerprint the index can produce is verified (LookupInto's
// re-hash) straight into its slot of st for the references that follow, and
// everything else gets its want bit set. Zero fingerprints are neither wanted
// nor staged — zeros are implicit. The returned want-bitmap belongs to st and
// is valid until st's next advert. Both the engine's receive loop and
// ServeSync answer adverts through here, so the reply semantics cannot
// diverge.
func (ix *Index) AnswerInto(st *Stage, fps []Fingerprint) (want []byte) {
	st.reset(len(fps), ix.blockSize)
	for k, fp := range fps {
		if fp == ix.zero {
			continue
		}
		if _, ok := st.slots[fp]; ok {
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

// Materialize resolves one MsgBlockRef fingerprint: staged content first, the
// index (verify-on-read) as fallback, zeros implicitly. ok is false when the
// content cannot be produced — a protocol error for the caller, never a
// silent wrong write. The content is read-only and borrowed: staged content
// lives until st's next advert, and zeros are one block shared process-wide.
func (ix *Index) Materialize(st *Stage, fp Fingerprint) (content []byte, ok bool) {
	if fp == ix.zero {
		return ix.zeroBlock, true
	}
	if st != nil {
		if k, ok := st.slots[fp]; ok {
			return st.buf[k*ix.blockSize : (k+1)*ix.blockSize], true
		}
	}
	return ix.Lookup(fp)
}

// evict removes one entry if it still names the given location.
func (ix *Index) evict(fp Fingerprint, l loc) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if cur, ok := ix.entries[fp]; ok && cur == l {
		delete(ix.entries, fp)
		if blocks := ix.rev[l.source]; blocks != nil && blocks[l.block] == fp {
			delete(blocks, l.block)
		}
	}
}
