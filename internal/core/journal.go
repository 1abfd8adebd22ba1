package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"bbmig/internal/bitmap"
	"bbmig/internal/transport"
)

// The migration journal is the source side's durable record of how far a
// migration has progressed: the negotiated session token, the reconnect
// epoch, the pipeline cursor (phase + iteration), and the bitmap of units
// still owed in the unit the interrupted phase moves (blocks or pages).
// It is checkpointed at phase and iteration boundaries — the paper's
// persistent block-bitmap, extended with enough cursor state to re-enter the
// pipeline instead of restarting it.
//
// Two consumers:
//
//   - in-process reconnect resume reads the in-memory copy to decide which
//     blocks are still owed after a link flap;
//   - cmd/bbmig -resume reads the on-disk copy after a source restart and
//     re-runs the migration incrementally from the journaled pending set.
//     The on-disk copy is crash-consistent per checkpoint (atomic rename +
//     CRC), but guest writes between the last checkpoint and the crash are
//     not captured — cold resume is exact for quiescent sources and
//     best-effort otherwise, which the README's failure model spells out.

// Journal phase codes (the wire/disk form of the Phase* names).
const (
	journalPhaseHandshake = iota
	journalPhaseDisk
	journalPhaseMem
	journalPhaseFreeze
	journalPhasePost
	journalPhaseDone
)

// journalPhaseCode maps a pipeline phase name to its disk code.
func journalPhaseCode(phase string) uint8 {
	switch phase {
	case PhaseHandshake:
		return journalPhaseHandshake
	case PhaseDiskPreCopy:
		return journalPhaseDisk
	case PhaseMemPreCopy:
		return journalPhaseMem
	case PhaseFreezeCopy:
		return journalPhaseFreeze
	case PhasePostCopy:
		return journalPhasePost
	}
	return journalPhaseDone
}

// journalPhaseName is the inverse of journalPhaseCode.
func journalPhaseName(code uint8) string {
	switch code {
	case journalPhaseHandshake:
		return PhaseHandshake
	case journalPhaseDisk:
		return PhaseDiskPreCopy
	case journalPhaseMem:
		return PhaseMemPreCopy
	case journalPhaseFreeze:
		return PhaseFreezeCopy
	case journalPhasePost:
		return PhasePostCopy
	}
	return "done"
}

// JournalState is one checkpoint of a resumable migration.
type JournalState struct {
	Token transport.SessionToken
	Epoch uint32
	Phase string // Phase* constant of the in-flight phase
	Iter  int    // 1-based iteration within an iterative phase
	// Pending marks the disk blocks still owed as of this checkpoint —
	// always blocks, the unit that survives a restart (memory cannot):
	// the interrupted iteration's set plus the live dirty snapshot during
	// disk pre-copy, the dirty snapshot during memory pre-copy, the
	// residual dirty blocks during freeze and post-copy. Nil once the
	// pipeline has completed.
	Pending *bitmap.Bitmap
}

// Journal keeps the latest checkpoint in memory and, when Path is set,
// mirrors every checkpoint to disk atomically.
type Journal struct {
	Path  string
	state JournalState
}

// Checkpoint records st as the latest state, persisting it when the journal
// has a path. A persistence failure is returned but the in-memory state is
// updated regardless — an unwritable journal degrades cold-restart resume,
// not in-process resume.
func (j *Journal) Checkpoint(st JournalState) error {
	if st.Pending != nil {
		st.Pending = st.Pending.Clone()
	}
	j.state = st
	if j.Path == "" {
		return nil
	}
	return writeJournalFile(j.Path, st)
}

// State returns the latest checkpoint.
func (j *Journal) State() JournalState { return j.state }

// journalMagic identifies a journal file; the version byte follows it.
var journalMagic = [4]byte{'B', 'B', 'J', 'R'}

const journalVersion = 1

// journal file layout:
//
//	magic(4) | version(1) | phase(1) | pad(2) |
//	epoch(4) | iter(4) | token(16) | bitmapLen(4) | bitmap | crc32(4)
//
// The trailing CRC covers everything before it, so a torn write (partial
// flush, crash mid-rename on a non-atomic filesystem) is detected on load
// rather than silently resuming from garbage.
const journalHeaderLen = 4 + 1 + 1 + 2 + 4 + 4 + 16 + 4

func marshalJournal(st JournalState) ([]byte, error) {
	var bm []byte
	if st.Pending != nil {
		var err error
		bm, err = st.Pending.MarshalBinary()
		if err != nil {
			return nil, err
		}
	}
	out := make([]byte, journalHeaderLen, journalHeaderLen+len(bm)+4)
	copy(out, journalMagic[:])
	out[4] = journalVersion
	out[5] = journalPhaseCode(st.Phase)
	binary.LittleEndian.PutUint32(out[8:], st.Epoch)
	binary.LittleEndian.PutUint32(out[12:], uint32(st.Iter))
	copy(out[16:32], st.Token[:])
	binary.LittleEndian.PutUint32(out[32:], uint32(len(bm)))
	out = append(out, bm...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(out))
	return append(out, crc[:]...), nil
}

func unmarshalJournal(data []byte, numBlocks int) (JournalState, error) {
	var st JournalState
	if len(data) < journalHeaderLen+4 {
		return st, fmt.Errorf("core: journal truncated: %d bytes", len(data))
	}
	if [4]byte(data[:4]) != journalMagic {
		return st, fmt.Errorf("core: not a migration journal")
	}
	if data[4] != journalVersion {
		return st, fmt.Errorf("core: journal version %d, want %d", data[4], journalVersion)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return st, fmt.Errorf("core: journal checksum mismatch (torn write?)")
	}
	st.Phase = journalPhaseName(data[5])
	st.Epoch = binary.LittleEndian.Uint32(data[8:])
	st.Iter = int(binary.LittleEndian.Uint32(data[12:]))
	copy(st.Token[:], data[16:32])
	bmLen := int(binary.LittleEndian.Uint32(data[32:]))
	if len(body) != journalHeaderLen+bmLen {
		return st, fmt.Errorf("core: journal bitmap length %d inconsistent with %d-byte file", bmLen, len(data))
	}
	if bmLen > 0 {
		var err error
		if st.Pending, err = bitmap.UnmarshalSized(body[journalHeaderLen:], numBlocks); err != nil {
			return st, fmt.Errorf("core: journal bitmap: %w", err)
		}
	}
	return st, nil
}

// writeJournalFile persists one checkpoint with the shared atomic-save
// crash discipline.
func writeJournalFile(path string, st JournalState) error {
	data, err := marshalJournal(st)
	if err != nil {
		return err
	}
	if err := bitmap.AtomicWriteFile(path, data); err != nil {
		return fmt.Errorf("core: journal save: %w", err)
	}
	return nil
}

// LoadJournal reads a journal file written by Checkpoint for a disk of
// numBlocks blocks; a pending set of any other size belongs to another disk
// and is refused.
func LoadJournal(path string, numBlocks int) (JournalState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return JournalState{}, fmt.Errorf("core: journal load: %w", err)
	}
	return unmarshalJournal(data, numBlocks)
}
