package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"bbmig/internal/bitmap"
)

// Vault maintains per-peer divergence bitmaps so a VM can migrate
// incrementally among *any* recently visited host, not just straight back —
// the paper's §VII "local disk storage version maintenance" future-work
// item. ("Our implementation of IM can only act between the primary
// destination and the source machine.")
//
// The host currently running the VM owns the Vault. Every write the local
// blkback observes is recorded against every known peer (each peer's copy
// is now stale at those blocks). When the VM migrates to peer P, the
// initial bitmap is exactly P's divergence set; after the migration
// synchronizes, P's set resets to empty. Peers never seen get an all-set
// bitmap, degenerating to a full primary migration.
type Vault struct {
	mu        sync.Mutex
	numBlocks int
	peers     map[string]*bitmap.Bitmap
}

// NewVault returns a Vault for a disk of numBlocks.
func NewVault(numBlocks int) *Vault {
	if numBlocks < 0 {
		panic(fmt.Sprintf("core: negative vault size %d", numBlocks))
	}
	return &Vault{numBlocks: numBlocks, peers: make(map[string]*bitmap.Bitmap)}
}

// Peers returns the registered peer names.
func (v *Vault) Peers() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	names := make([]string, 0, len(v.peers))
	for n := range v.peers {
		names = append(names, n)
	}
	return names
}

// RecordWrites folds locally observed writes into every peer's divergence
// set. Call it per pre-copy-style interval with Backend.SwapDirty output,
// or once with a gate's FreshBitmap.
func (v *Vault) RecordWrites(dirty *bitmap.Bitmap) {
	if dirty.Len() != v.numBlocks {
		panic(fmt.Sprintf("core: vault size %d, bitmap %d", v.numBlocks, dirty.Len()))
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, bm := range v.peers {
		bm.Union(dirty)
	}
}

// RecordWriteRange folds one write of blocks [lo, hi) into every peer's
// divergence set — the per-request path for an interposed submit function.
func (v *Vault) RecordWriteRange(lo, hi int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, bm := range v.peers {
		bm.SetRange(lo, hi)
	}
}

// DivergePeer folds bm into one peer's divergence set, registering the peer
// if new. This is the rollback path for a failed pre-sync: only the peer
// that missed the blocks is re-diverged, unlike RecordWrites which charges
// every peer.
func (v *Vault) DivergePeer(name string, bm *bitmap.Bitmap) {
	if bm.Len() != v.numBlocks {
		panic(fmt.Sprintf("core: vault size %d, bitmap %d", v.numBlocks, bm.Len()))
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	cur, ok := v.peers[name]
	if !ok {
		cur = bitmap.New(v.numBlocks)
		v.peers[name] = cur
	}
	cur.Union(bm)
}

// InitialFor returns the bitmap to seed a migration to peer with: its
// divergence set if known, otherwise all-set (full migration). The returned
// bitmap is a copy.
func (v *Vault) InitialFor(peer string) *bitmap.Bitmap {
	v.mu.Lock()
	defer v.mu.Unlock()
	if bm, ok := v.peers[peer]; ok {
		return bm.Clone()
	}
	return bitmap.NewAllSet(v.numBlocks)
}

// MarkSynced records that peer now holds an identical copy (a migration to
// it completed): its divergence set resets and it is registered if new.
func (v *Vault) MarkSynced(peer string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if bm, ok := v.peers[peer]; ok {
		bm.Reset()
		return
	}
	v.peers[peer] = bitmap.New(v.numBlocks)
}

// MarshalBinary serializes the vault so it can travel with the VM to the
// next host (the divergence sets describe the *disk*, which moves).
// Layout: numBlocks(8) | peerCount(4) | per peer: nameLen(2) name bitmapLen(4) bitmap.
func (v *Vault) MarshalBinary() ([]byte, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	names := make([]string, 0, len(v.peers))
	for n := range v.peers {
		names = append(names, n)
	}
	sort.Strings(names) // deterministic wire form
	out := make([]byte, 12)
	binary.LittleEndian.PutUint64(out, uint64(v.numBlocks))
	binary.LittleEndian.PutUint32(out[8:], uint32(len(names)))
	for _, name := range names {
		if len(name) > 0xFFFF {
			return nil, fmt.Errorf("core: peer name %q too long", name[:32])
		}
		bm, err := v.peers[name].MarshalBinary()
		if err != nil {
			return nil, err
		}
		var hdr [6]byte
		binary.LittleEndian.PutUint16(hdr[0:], uint16(len(name)))
		binary.LittleEndian.PutUint32(hdr[2:], uint32(len(bm)))
		out = append(out, hdr[:]...)
		out = append(out, name...)
		out = append(out, bm...)
	}
	return out, nil
}

// UnmarshalVault deserializes a vault produced by MarshalBinary for a disk
// of numBlocks blocks — the receiver's own device, which the vault and every
// divergence set in it must match. Only MarshalBinary's own form is
// accepted: peers in strictly increasing name order (so no name twice),
// each set in the encoding MarshalBinary picks, and nothing after the last
// peer. Any accepted input re-marshals to exactly itself.
func UnmarshalVault(data []byte, numBlocks int) (*Vault, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("core: vault truncated: %d bytes", len(data))
	}
	if got := binary.LittleEndian.Uint64(data); got != uint64(numBlocks) {
		return nil, fmt.Errorf("core: vault covers %d blocks, disk has %d", got, numBlocks)
	}
	count := int(binary.LittleEndian.Uint32(data[8:]))
	v := NewVault(numBlocks)
	off, prev := 12, ""
	for i := 0; i < count; i++ {
		if len(data) < off+6 {
			return nil, fmt.Errorf("core: vault peer %d header truncated", i)
		}
		nameLen := int(binary.LittleEndian.Uint16(data[off:]))
		bmLen := int(binary.LittleEndian.Uint32(data[off+2:]))
		off += 6
		if len(data) < off+nameLen+bmLen {
			return nil, fmt.Errorf("core: vault peer %d body truncated", i)
		}
		name := string(data[off : off+nameLen])
		if i > 0 && name <= prev {
			return nil, fmt.Errorf("core: vault peer %q out of order or repeated", name)
		}
		prev = name
		off += nameLen
		raw := data[off : off+bmLen]
		bm, err := bitmap.UnmarshalSized(raw, numBlocks)
		if err != nil {
			return nil, fmt.Errorf("core: vault peer %q: %w", name, err)
		}
		if canon, _ := bm.MarshalBinary(); !bytes.Equal(canon, raw) {
			return nil, fmt.Errorf("core: vault peer %q: set not in canonical form", name)
		}
		off += bmLen
		v.peers[name] = bm
	}
	if off != len(data) {
		return nil, fmt.Errorf("core: vault has %d bytes after its last peer", len(data)-off)
	}
	return v, nil
}

// DivergentBlocks reports how many blocks peer is behind by, or -1 if the
// peer is unknown.
func (v *Vault) DivergentBlocks(peer string) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	if bm, ok := v.peers[peer]; ok {
		return bm.Count()
	}
	return -1
}
