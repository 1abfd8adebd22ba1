package hostd

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bbmig/internal/blockdev"
	"bbmig/internal/core"
	"bbmig/internal/transport"
	"bbmig/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite pre-sync frame-sequence golden files")

// tapSync runs one SyncOut/ServeSync pair through a relay that records every
// frame's type, Arg and payload length per direction, and returns the report
// and the rendered sequences. Each direction has exactly one sender, so both
// sequences are deterministic.
func tapSync(t *testing.T, src, dst *Machine, domain string, cfg core.Config) (*SyncReport, string) {
	t.Helper()
	real, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer real.Close()
	front, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()

	srvCh := make(chan error, 1)
	go func() {
		_, err := dst.ServeSync(real)
		srvCh <- err
	}()

	var mu sync.Mutex
	var out, back []string
	relayDone := make(chan struct{})
	go func() {
		defer close(relayDone)
		a, err := transport.Accept(front)
		if err != nil {
			return
		}
		defer a.Close()
		b, err := transport.Dial(real.Addr().String())
		if err != nil {
			return
		}
		defer b.Close()
		pump := func(from, to transport.Conn, rec *[]string) {
			for {
				m, err := from.Recv()
				if err != nil {
					to.Close()
					return
				}
				mu.Lock()
				*rec = append(*rec, fmt.Sprintf("%s arg=%d len=%d", m.Type, m.Arg, len(m.Payload)))
				mu.Unlock()
				if err := to.Send(m); err != nil {
					return
				}
			}
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); pump(a, b, &out) }()
		go func() { defer wg.Done(); pump(b, a, &back) }()
		wg.Wait()
	}()

	sr, err := src.SyncOut(domain, dst.Name, front.Addr().String(), cfg)
	if err != nil {
		t.Fatalf("sync out: %v", err)
	}
	if err := <-srvCh; err != nil {
		t.Fatalf("serve sync: %v", err)
	}
	<-relayDone

	var sb strings.Builder
	sb.WriteString("# pre-sync frames: type, Arg, payload length, in send order\n")
	sb.WriteString("--- source->dest ---\n")
	for _, f := range out {
		sb.WriteString(f + "\n")
	}
	sb.WriteString("--- dest->source ---\n")
	for _, f := range back {
		sb.WriteString(f + "\n")
	}
	return sr, sb.String()
}

func checkSyncGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("pre-sync frames diverge from the recorded sequence\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// syncTraceDomain creates a 512-block domain whose disk mixes content runs
// with never-written (all-zero) runs: blocks [0,200) and [300,340) carry
// pattern content, the rest stay zero.
func syncTraceDomain(t *testing.T, m *Machine) *Domain {
	t.Helper()
	d, err := m.CreateDomain("g", 512, tPages, workload.Web, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < 340; n++ {
		if n >= 200 && n < 300 {
			continue
		}
		workload.FillBlock(buf, n, 5)
		if err := d.Submit(blockdev.Request{Op: blockdev.Write, Block: n, Domain: d.VM().DomainID, Data: buf}); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestSyncFrameSequence pins the pre-sync wire dialogue (WIRE.md §6
// "Pre-sync session") frame for frame in each direction: each wholly zero
// extent is one header-only ZERO_EXTENT at its Arg, and with dedup the
// adverts run up to eight ahead of the literals while the blocks the
// destination holds are written at their advert, no frame of their own.
// Those blocks count with the zero runs.
func TestSyncFrameSequence(t *testing.T) {
	t.Run("literal", func(t *testing.T) {
		a, b := NewMachine("A"), NewMachine("B")
		syncTraceDomain(t, a)
		sr, got := tapSync(t, a, b, "g", core.Config{MaxExtentBlocks: 64})
		// [384,448) and [448,512) are the only 64-block extents with no content.
		if sr.Blocks != 512 || sr.DedupBlocks != 128 {
			t.Fatalf("literal sync shipped %d blocks (%d as zero runs), want 512 / 128", sr.Blocks, sr.DedupBlocks)
		}
		checkSyncGolden(t, "presync_literal.golden", got)
	})
	t.Run("dedup-cold", func(t *testing.T) {
		a, b := NewMachine("A"), NewMachine("B")
		syncTraceDomain(t, a)
		sr, got := tapSync(t, a, b, "g", core.Config{Dedup: true, MaxExtentBlocks: 16})
		if sr.Blocks != 512 || sr.DedupBlocks != 512-240 {
			t.Fatalf("cold dedup sync shipped %d blocks (%d by reference), want 512 / %d", sr.Blocks, sr.DedupBlocks, 512-240)
		}
		checkSyncGolden(t, "presync_dedup_cold.golden", got)
	})
	t.Run("dedup-warm", func(t *testing.T) {
		a, b := NewMachine("A"), NewMachine("B")
		syncTraceDomain(t, a)
		// B hosts a sibling holding every other 8-block run of g's content:
		// half of each advert comes back unwanted (124 of the 240 content
		// blocks are held, 116 travel literally).
		sib, err := b.CreateDomain("sib", 512, tPages, workload.Web, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, blockdev.BlockSize)
		for n := 0; n < 340; n++ {
			if (n >= 200 && n < 300) || (n/8)%2 == 1 {
				continue
			}
			workload.FillBlock(buf, n, 5)
			if err := sib.Submit(blockdev.Request{Op: blockdev.Write, Block: (n + 37) % 512, Domain: sib.VM().DomainID, Data: buf}); err != nil {
				t.Fatal(err)
			}
		}
		sr, got := tapSync(t, a, b, "g", core.Config{Dedup: true, MaxExtentBlocks: 16})
		if sr.Blocks != 512 || sr.DedupBlocks != 512-116 {
			t.Fatalf("warm dedup sync shipped %d blocks (%d by reference), want 512 / %d", sr.Blocks, sr.DedupBlocks, 512-116)
		}
		checkSyncGolden(t, "presync_dedup_warm.golden", got)
	})
}
