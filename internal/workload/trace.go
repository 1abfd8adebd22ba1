package workload

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"bbmig/internal/blockdev"
)

// This file implements I/O trace recording and replay — the instrumentation
// behind the paper's §IV-A-2 statistics ("we have checked the storage write
// locality using some benchmarks": a kernel build, SPECweb, Bonnie++). A
// TraceWriter logs every access a generator makes; a TraceReader replays a
// recorded trace as a Generator, so captured workloads drive migrations
// exactly like the synthetic ones.
//
// Wire format: 16-byte header ("BBTRACE1" + block count), then one 17-byte
// record per access: at(8) op(1) block(4) count(4), little-endian.

const traceMagic = "BBTRACE1"

// ErrTraceCorrupt reports an unreadable trace file.
var ErrTraceCorrupt = errors.New("workload: corrupt trace")

// TraceWriter streams accesses to an io.Writer in trace format.
type TraceWriter struct {
	w         *bufio.Writer
	numBlocks int
	count     int64
}

// NewTraceWriter writes a trace header for a disk of numBlocks and returns
// the writer.
func NewTraceWriter(w io.Writer, numBlocks int) (*TraceWriter, error) {
	tw := &TraceWriter{w: bufio.NewWriterSize(w, 64<<10), numBlocks: numBlocks}
	var hdr [16]byte
	copy(hdr[:8], traceMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(numBlocks))
	if _, err := tw.w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("workload: trace header: %w", err)
	}
	return tw, nil
}

// Append logs one access.
func (t *TraceWriter) Append(a Access) error {
	var rec [17]byte
	binary.LittleEndian.PutUint64(rec[0:], uint64(a.At))
	rec[8] = byte(a.Op)
	binary.LittleEndian.PutUint32(rec[9:], uint32(a.Block))
	binary.LittleEndian.PutUint32(rec[13:], uint32(a.Count))
	if _, err := t.w.Write(rec[:]); err != nil {
		return fmt.Errorf("workload: trace append: %w", err)
	}
	t.count++
	return nil
}

// Count returns how many accesses have been appended.
func (t *TraceWriter) Count() int64 { return t.count }

// Flush drains the write buffer.
func (t *TraceWriter) Flush() error { return t.w.Flush() }

// TraceReader replays a recorded trace as a Generator. The whole trace is
// held in memory so Reset is cheap; traces of tens of millions of events fit
// comfortably (17 B/event). When the trace is exhausted the reader repeats
// it, shifted in time, so migrations longer than the capture still see load
// (mirroring how the paper loops Bonnie++).
type TraceReader struct {
	name      string
	numBlocks int
	events    []Access
	pos       int
	loops     int
}

// ReadTrace parses a trace from r.
func ReadTrace(name string, r io.Reader) (*TraceReader, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTraceCorrupt, err)
	}
	if string(hdr[:8]) != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrTraceCorrupt, hdr[:8])
	}
	tr := &TraceReader{name: name, numBlocks: int(binary.LittleEndian.Uint64(hdr[8:]))}
	var rec [17]byte
	for {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("%w: record %d: %v", ErrTraceCorrupt, len(tr.events), err)
		}
		a := Access{
			At:    time.Duration(binary.LittleEndian.Uint64(rec[0:])),
			Op:    blockdev.Op(rec[8]),
			Block: int(binary.LittleEndian.Uint32(rec[9:])),
			Count: int(binary.LittleEndian.Uint32(rec[13:])),
		}
		if a.Op != blockdev.Read && a.Op != blockdev.Write {
			return nil, fmt.Errorf("%w: record %d has op %d", ErrTraceCorrupt, len(tr.events), rec[8])
		}
		if a.Count < 1 || a.Block < 0 || a.Block+a.Count > tr.numBlocks {
			return nil, fmt.Errorf("%w: record %d out of range", ErrTraceCorrupt, len(tr.events))
		}
		tr.events = append(tr.events, a)
	}
	if len(tr.events) == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrTraceCorrupt)
	}
	return tr, nil
}

// LoadTrace reads a trace file from disk.
func LoadTrace(path string) (*TraceReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(path, f)
}

// NumBlocks returns the disk size the trace was captured against.
func (t *TraceReader) NumBlocks() int { return t.numBlocks }

// Len returns the number of events in one pass of the trace.
func (t *TraceReader) Len() int { return len(t.events) }

// Name implements Generator.
func (t *TraceReader) Name() string { return fmt.Sprintf("trace(%s)", t.name) }

// Next implements Generator, looping the trace with a time shift when it
// runs out.
func (t *TraceReader) Next() Access {
	a := t.events[t.pos]
	// shift by completed passes BEFORE advancing, so the final event of a
	// pass is not double-shifted by its own wrap
	a.At += time.Duration(t.loops) * t.events[len(t.events)-1].At
	t.pos++
	if t.pos == len(t.events) {
		t.pos = 0
		t.loops++
	}
	return a
}

// Reset implements Generator.
func (t *TraceReader) Reset() { t.pos, t.loops = 0, 0 }
