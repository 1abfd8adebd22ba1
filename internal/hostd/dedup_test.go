package hostd

import (
	"testing"

	"bbmig/internal/blockdev"
	"bbmig/internal/core"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/workload"
)

// writeTemplate fills a domain's disk (through its vault-tracking Submit
// path) with clone-template content: `filled` blocks cycling `distinct`
// template payloads.
func writeTemplate(t *testing.T, d *Domain, filled, distinct int) {
	t.Helper()
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < filled; n++ {
		workload.FillBlock(buf, n%distinct, 3)
		err := d.Submit(blockdev.Request{Op: blockdev.Write, Block: n, Domain: d.VM().DomainID, Data: buf})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// dedupHop migrates domain src→dst with content dedup negotiated.
func dedupHop(t *testing.T, src, dst *Machine, domain string) *metrics.Report {
	t.Helper()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	resCh := make(chan error, 1)
	go func() {
		_, err := dst.ServeOne(l, core.Config{})
		resCh <- err
	}()
	rep, err := src.MigrateOut(domain, dst.Name, l.Addr().String(), core.Config{Dedup: true, MaxExtentBlocks: 16})
	if err != nil {
		t.Fatalf("dedup hop %s→%s: source: %v", src.Name, dst.Name, err)
	}
	if err := <-resCh; err != nil {
		t.Fatalf("dedup hop %s→%s: destination: %v", src.Name, dst.Name, err)
	}
	return rep
}

// TestDedupCloneFleet is the clone-fleet scenario the tentpole targets: two
// template-provisioned siblings migrate A→B; the first seeds B's machine
// index, so the second arrives almost entirely by reference — and both land
// byte-identical.
func TestDedupCloneFleet(t *testing.T) {
	a, b := NewMachine("A"), NewMachine("B")
	for _, name := range []string{"web1", "web2"} {
		d, err := a.CreateDomain(name, tBlocks, tPages, workload.Web, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		writeTemplate(t, d, tBlocks*3/4, 64)
	}
	d1, _ := a.Domain("web1")
	d2, _ := a.Domain("web2")
	want1, want2 := shadow(t, d1), shadow(t, d2)

	rep1 := dedupHop(t, a, b, "web1")
	rep2 := dedupHop(t, a, b, "web2")
	want1.on(t, b)
	want2.on(t, b)

	if rep2.DedupBlocks != tBlocks {
		t.Fatalf("sibling moved %d of %d blocks by reference", rep2.DedupBlocks, tBlocks)
	}
	// Memory pages never dedup, so the acceptance bar is on disk bytes: the
	// sibling's disk transfer must be at least 5x smaller than the first
	// clone's (which itself already dedups repeats and zeros).
	diskBytes := func(rep *metrics.Report) int64 {
		var total int64
		for _, it := range rep.DiskIterations {
			total += it.Bytes
		}
		return total
	}
	if d1b, d2b := diskBytes(rep1), diskBytes(rep2); d2b*5 > d1b {
		t.Fatalf("sibling's disk transfer %d bytes vs first clone's %d — less than 5x", d2b, d1b)
	}
}

// TestDedupMigrateBack pins the IM/vault integration: a domain migrates
// A→B, its blocks are rewritten on B — partly with the same content —
// and the migration back to A (positionally incremental via the vault)
// additionally references every rewritten-but-identical block from A's
// retained copy instead of retransmitting it.
func TestDedupMigrateBack(t *testing.T) {
	a, b := NewMachine("A"), NewMachine("B")
	d, err := a.CreateDomain("g", tBlocks, tPages, workload.Web, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	writeTemplate(t, d, 512, 64)
	dedupHop(t, a, b, "g")

	// On B: rewrite 256 blocks with content identical to what they already
	// held (the vault cannot know; the fingerprint index can) and 32 blocks
	// with genuinely new content.
	db, _ := b.Domain("g")
	buf := make([]byte, blockdev.BlockSize)
	for n := 0; n < 256; n++ {
		workload.FillBlock(buf, n%64, 3) // same template payload as writeTemplate
		if err := db.Submit(blockdev.Request{Op: blockdev.Write, Block: n, Domain: db.VM().DomainID, Data: buf}); err != nil {
			t.Fatal(err)
		}
	}
	for n := 600; n < 632; n++ {
		workload.FillBlock(buf, n, 99)
		if err := db.Submit(blockdev.Request{Op: blockdev.Write, Block: n, Domain: db.VM().DomainID, Data: buf}); err != nil {
			t.Fatal(err)
		}
	}
	want := shadow(t, db)

	rep := dedupHop(t, b, a, "g")
	want.on(t, a)
	if rep.Scheme != "IM" {
		t.Fatalf("migrate-back scheme %q, want IM", rep.Scheme)
	}
	// The incremental set is those 288 dirty blocks; at least the 256
	// identical rewrites must ride as references against A's retained copy.
	if rep.DedupBlocks < 256 {
		t.Fatalf("only %d blocks deduped on the way back", rep.DedupBlocks)
	}
}

// TestSyncOutDedup pins the drain pre-sync integration: a pre-sync with
// Dedup set ships identical-content divergence as references, and the
// synced copy matches what a literal sync produces.
func TestSyncOutDedup(t *testing.T) {
	a, b := NewMachine("A"), NewMachine("B")
	d, err := a.CreateDomain("g", tBlocks, tPages, workload.Web, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	writeTemplate(t, d, 512, 64)
	// B already holds the domain (a previous migration's retained copy):
	// migrate there and back so both sides know each other.
	dedupHop(t, a, b, "g")
	dedupHop(t, b, a, "g")

	// Diverge on A: rewrite 128 blocks with template content B still holds.
	da, _ := a.Domain("g")
	buf := make([]byte, blockdev.BlockSize)
	for n := 256; n < 384; n++ {
		workload.FillBlock(buf, n%64, 3)
		if err := da.Submit(blockdev.Request{Op: blockdev.Write, Block: n, Domain: da.VM().DomainID, Data: buf}); err != nil {
			t.Fatal(err)
		}
	}

	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srvCh := make(chan error, 1)
	go func() {
		_, err := b.ServeSync(l)
		srvCh <- err
	}()
	sr, err := a.SyncOut("g", "B", l.Addr().String(), core.Config{Dedup: true, MaxExtentBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-srvCh; err != nil {
		t.Fatal(err)
	}
	if sr.Blocks == 0 {
		t.Fatal("pre-sync shipped nothing")
	}
	if sr.DedupBlocks != sr.Blocks {
		t.Fatalf("pre-sync deduped %d of %d blocks, want all (content identical)", sr.DedupBlocks, sr.Blocks)
	}
	// B's retained copy must now byte-match A's live disk.
	b.mu.Lock()
	retained := b.retained["g"]
	b.mu.Unlock()
	if retained == nil {
		t.Fatal("no retained copy on B")
	}
	diffs, err := blockdev.Diff(da.Disk(), retained)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("synced copy differs at %d blocks", len(diffs))
	}
	// And the vault considers B synced: a MigrateOut now ships ~nothing.
	if div := da.Vault().DivergentBlocks("B"); div != 0 {
		t.Fatalf("vault still shows %d divergent blocks after sync", div)
	}
}
