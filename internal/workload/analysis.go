package workload

import (
	"encoding/binary"
	"fmt"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
)

// LocalityStats summarizes the write locality of a trace prefix, the measure
// behind the paper's §IV-A-2 argument that delta-queue synchronization
// (Bradford et al.) retransmits redundant data while a bitmap does not.
type LocalityStats struct {
	Writes       int     // total block writes observed
	UniqueBlocks int     // distinct blocks written
	Rewrites     int     // writes that hit an already-written block
	RewriteRatio float64 // Rewrites / Writes
}

// Locality consumes the generator until duration elapses (workload time) and
// returns its write-locality statistics. The generator is left mid-stream;
// Reset it before reuse.
func Locality(g Generator, duration time.Duration) LocalityStats {
	seen := make(map[int]bool)
	var st LocalityStats
	for {
		a := g.Next()
		if a.At >= duration {
			break
		}
		if a.Op != blockdev.Write {
			continue
		}
		for i := 0; i < a.Count; i++ {
			st.Writes++
			if seen[a.Block+i] {
				st.Rewrites++
			} else {
				seen[a.Block+i] = true
				st.UniqueBlocks++
			}
		}
	}
	if st.Writes > 0 {
		st.RewriteRatio = float64(st.Rewrites) / float64(st.Writes)
	}
	return st
}

// String renders the stats in the paper's terms.
func (s LocalityStats) String() string {
	return fmt.Sprintf("%d writes, %d unique blocks, %.1f%% rewrite previously written blocks",
		s.Writes, s.UniqueBlocks, s.RewriteRatio*100)
}

// ReplayStats summarizes a Replay run.
type ReplayStats struct {
	Reads, Writes   int64 // requests submitted
	BlocksRead      int64
	BlocksWritten   int64
	WorkloadElapsed time.Duration // workload-time horizon actually replayed
}

// Replay drives a generator against a submit function (typically
// Backend.Submit or PostCopyGate.Submit) for `until` of workload time,
// compressed by speedup (speedup 100 replays 100 s of workload in 1 s). The
// runtime clock paces the replay, from the call on; inside a testing/synctest
// bubble the replay takes no wall time.
// Write payloads are synthesized deterministically from the block number and
// a per-block generation counter so that every rewrite changes the content
// (letting tests verify synchronization catches rewrites). Replay stops
// early, without error, when stop is closed.
func Replay(g Generator, domain int, until time.Duration, speedup float64,
	submit func(blockdev.Request) error, stop <-chan struct{}) (ReplayStats, error) {

	if speedup <= 0 {
		speedup = 1
	}
	var st ReplayStats
	start := time.Now()
	gen := make(map[int]uint32)
	buf := make([]byte, blockdev.BlockSize)
	for {
		select {
		case <-stop:
			return st, nil
		default:
		}
		a := g.Next()
		if a.At >= until {
			st.WorkloadElapsed = until
			return st, nil
		}
		if lag := time.Duration(float64(a.At)/speedup) - time.Since(start); lag > 0 {
			time.Sleep(lag)
		}
		for i := 0; i < a.Count; i++ {
			blk := a.Block + i
			req := blockdev.Request{Op: a.Op, Block: blk, Domain: domain, Data: buf}
			if a.Op == blockdev.Write {
				gen[blk]++
				FillBlock(buf, blk, gen[blk])
				st.Writes++
				st.BlocksWritten++
			} else {
				st.Reads++
				st.BlocksRead++
			}
			if err := submit(req); err != nil {
				return st, fmt.Errorf("workload %s: %v op at block %d: %w", g.Name(), a.Op, blk, err)
			}
		}
		st.WorkloadElapsed = a.At
	}
}

// WriteSet returns the first count distinct blocks the generator writes, as
// a bitmap over its numBlocks-block disk: the divergence a guest of that kind
// leaves behind, laid out as the guest lays it out. The generator is left
// mid-stream; Reset it before reuse.
func WriteSet(g Generator, numBlocks, count int) *bitmap.Bitmap {
	set := bitmap.New(numBlocks)
	for n := 0; n < count; {
		if a := g.Next(); a.Op == blockdev.Write && !set.Test(a.Block) {
			set.Set(a.Block)
			n++
		}
	}
	return set
}

// fillPeriod is the length after which FillBlock's pattern repeats:
// lcm(12, 256), the 12-byte seed against the byte ramp.
const fillPeriod = 768

// FillBlock writes a deterministic pattern identifying (block, generation)
// into buf. Verification code uses it to check that the destination holds
// the latest generation of every block.
//
// Byte i is seed[i%12] ^ byte(i), where the seed is the block number and the
// generation, little-endian. One period is built eight bytes at a time — a
// word of the seed repeated twice, XOR the ramp's word at that offset — and
// then doubled into buf with copy.
func FillBlock(buf []byte, block int, generation uint32) {
	var seed [24]byte
	binary.LittleEndian.PutUint64(seed[0:], uint64(block))
	binary.LittleEndian.PutUint32(seed[8:], generation)
	copy(seed[12:], seed[:12])
	words := [3]uint64{
		binary.LittleEndian.Uint64(seed[0:]),
		binary.LittleEndian.Uint64(seed[8:]),
		binary.LittleEndian.Uint64(seed[16:]),
	}
	var period [fillPeriod]byte
	for j := 0; j < fillPeriod/8; j++ {
		// Bytes 8j … 8j+7 of the ramp, which never wrap inside one word.
		ramp := uint64(0x0706050403020100) + uint64(byte(8*j))*0x0101010101010101
		binary.LittleEndian.PutUint64(period[8*j:], words[j%3]^ramp)
	}
	for n := copy(buf, period[:]); n < len(buf); {
		n += copy(buf[n:], buf[:n])
	}
}
