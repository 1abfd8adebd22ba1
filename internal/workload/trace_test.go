package workload

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bbmig/internal/blockdev"
)

// record consumes horizon accesses of gen and writes them to w as a trace,
// returning how many it captured.
func record(gen Generator, horizon int64, w io.Writer, numBlocks int) (int64, error) {
	tw, err := NewTraceWriter(w, numBlocks)
	if err != nil {
		return 0, err
	}
	for i := int64(0); i < horizon; i++ {
		if err := tw.Append(gen.Next()); err != nil {
			return tw.Count(), err
		}
	}
	return tw.Count(), tw.Flush()
}

func TestTraceRecordReplayRoundTrip(t *testing.T) {
	gen := NewWebServer(testDiskBlocks, 5)
	var buf bytes.Buffer
	const horizon = 5000
	n, err := record(gen, horizon, &buf, testDiskBlocks)
	if err != nil {
		t.Fatal(err)
	}
	if n != horizon {
		t.Fatalf("recorded %d events", n)
	}
	tr, err := ReadTrace("test", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumBlocks() != testDiskBlocks || tr.Len() != horizon {
		t.Fatalf("trace geometry %d/%d", tr.NumBlocks(), tr.Len())
	}
	// the replay must be event-for-event identical to the original stream
	gen.Reset()
	for i := 0; i < horizon; i++ {
		want := gen.Next()
		got := tr.Next()
		if got != want {
			t.Fatalf("event %d: %+v != %+v", i, got, want)
		}
	}
	if tr.Name() == "" {
		t.Fatal("unnamed trace")
	}
}

func TestTraceLoopsWithTimeShift(t *testing.T) {
	gen := NewStreaming(testDiskBlocks, 5)
	var buf bytes.Buffer
	if _, err := record(gen, 100, &buf, testDiskBlocks); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace("loop", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var last time.Duration
	for i := 0; i < 350; i++ { // 3.5 passes
		a := tr.Next()
		if a.At < last {
			t.Fatalf("time went backwards at replayed event %d: %v < %v", i, a.At, last)
		}
		last = a.At
	}
	tr.Reset()
	if a := tr.Next(); a.At > last/2 {
		t.Fatal("Reset did not rewind the time shift")
	}
}

func TestTraceAsMigrationWorkload(t *testing.T) {
	// A recorded trace drives a device exactly like a live generator.
	gen := NewKernelBuild(1024, 5)
	var buf bytes.Buffer
	if _, err := record(gen, 2000, &buf, 1024); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace("kb", &buf)
	if err != nil {
		t.Fatal(err)
	}
	dev := blockdev.NewMemDisk(1024, blockdev.BlockSize)
	st, err := Replay(tr, 1, 30*time.Second, 1e4, func(r blockdev.Request) error {
		if r.Op == blockdev.Write {
			return dev.WriteBlock(r.Block, r.Data)
		}
		return dev.ReadBlock(r.Block, r.Data)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes == 0 || dev.WrittenBlocks() == 0 {
		t.Fatalf("trace replay did nothing: %+v", st)
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	gen := NewDiabolical(testDiskBlocks, 5)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := record(gen, 1000, f, testDiskBlocks); err != nil {
		t.Fatal(err)
	}
	f.Close()
	tr, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if _, err := LoadTrace(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing trace accepted")
	}
}

func TestTraceRejectsCorruption(t *testing.T) {
	gen := NewWebServer(testDiskBlocks, 5)
	var buf bytes.Buffer
	record(gen, 10, &buf, testDiskBlocks)
	data := buf.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOTTRACE"), data[8:]...),
		"truncated": data[:len(data)-5],
		"no events": data[:16],
		"bad op":    corruptAt(data, 16+8, 7),
		"bad block": corruptAt(data, 16+9, 0xFF), // pushes block out of range
	}
	for name, d := range cases {
		if _, err := ReadTrace(name, bytes.NewReader(d)); !errors.Is(err, ErrTraceCorrupt) {
			t.Errorf("%s: err = %v, want ErrTraceCorrupt", name, err)
		}
	}
}

func corruptAt(data []byte, off int, val byte) []byte {
	out := append([]byte(nil), data...)
	for i := 0; i < 4 && off+i < len(out); i++ {
		out[off+i] = val
	}
	return out
}
