package dedup

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"

	"bbmig/internal/blockdev"
)

// The tests in this file prove the write-stamp rule of Index.LookupInto: an
// unchanged stamp of the registered device stands in for a re-hash, and
// nothing else does.

// statsDelta runs fn and returns how the index's counters moved.
func statsDelta(ix *Index, fn func()) Stats {
	before := ix.Stats()
	fn()
	after := ix.Stats()
	return Stats{
		Hashes:      after.Hashes - before.Hashes,
		Lookups:     after.Lookups - before.Lookups,
		Vouched:     after.Vouched - before.Vouched,
		ScanSkipped: after.ScanSkipped - before.ScanSkipped,
		Reused:      after.Reused - before.Reused,
	}
}

// TestRewrittenBlockWantedNeverStaged proves a write through the MemDisk
// after the scan changes the stamp the scan recorded: the advert wants the
// rewritten block's old fingerprint and stages nothing for it, and the
// blocks around it are still served.
func TestRewrittenBlockWantedNeverStaged(t *testing.T) {
	ix := NewIndex(blockdev.BlockSize)
	disk, fps := warmDisk(t, ix, "d", 4, 1)
	fill(disk, 2, 0xE0)
	var st Stage
	defer st.Release()
	want := ix.AnswerInto(&st, fps)
	for k := range fps {
		if Want(want, k) != (k == 2) {
			t.Errorf("block %d: wanted = %v", k, Want(want, k))
		}
	}
	if _, ok := ix.Materialize(&st, fps[2]); ok {
		t.Error("the rewritten block's old fingerprint was staged")
	}
	if got, ok := lookup(ix, fps[2]); ok {
		t.Errorf("the rewritten block's old fingerprint resolved to %x…", Of(got))
	}
}

// TestNeighbourWriteCostsOneRehash proves a stamp covers more than its block
// only at the price of hashes: a write to a neighbour in the same stamp unit
// (one MemDisk shard) makes the next lookup re-hash, which still hits and
// vouches for the entry again, so the lookup after it hashes nothing.
func TestNeighbourWriteCostsOneRehash(t *testing.T) {
	ix := NewIndex(blockdev.BlockSize)
	disk, fps := warmDisk(t, ix, "d", 4, 1) // one run: one shard
	hit := func() {
		if got, ok := lookup(ix, fps[0]); !ok || Of(got) != fps[0] {
			t.Fatal("block 0's content did not resolve")
		}
	}
	if d := statsDelta(ix, hit); d != (Stats{Lookups: 1, Vouched: 1}) {
		t.Errorf("lookup after the scan: %+v, want one vouched lookup and no hash", d)
	}
	fill(disk, 1, 0xE1)
	if d := statsDelta(ix, hit); d != (Stats{Hashes: 1, Lookups: 1}) {
		t.Errorf("lookup after a neighbour's write: %+v, want one re-hash", d)
	}
	if d := statsDelta(ix, hit); d != (Stats{Lookups: 1, Vouched: 1}) {
		t.Errorf("lookup after the re-hash: %+v, want one vouched lookup and no hash", d)
	}
}

// TestReregisteredNameNeverServesOldDevice proves a stamp names one write to
// one device: when the name moves onto a different MemDisk, the entries the
// old device's stamps vouched for are re-hashed against the new device, and
// miss where it holds other bytes, even where the new device was written as
// often as the old.
func TestReregisteredNameNeverServesOldDevice(t *testing.T) {
	ix := NewIndex(blockdev.BlockSize)
	_, fps := warmDisk(t, ix, "d", 4, 1)
	other := blockdev.NewMemDisk(4, blockdev.BlockSize)
	for k := range 4 {
		fill(other, k, 0x80+byte(k))
	}
	fill(other, 3, 1+3) // block 3 holds the same bytes on both devices
	if err := ix.RegisterSource("d", other); err != nil {
		t.Fatal(err)
	}
	d := statsDelta(ix, func() {
		for k, fp := range fps {
			got, ok := lookup(ix, fp)
			if ok != (k == 3) || ok && Of(got) != fp {
				t.Errorf("block %d: hit = %v on a device that holds other bytes", k, ok)
			}
		}
	})
	if d.Vouched != 0 || d.Hashes != 4 {
		t.Errorf("lookups on the new device: %+v, want 4 hashes and none vouched", d)
	}
}

// TestObservationKeepsVouchedEntry proves an observation does not displace
// an entry a stamp vouches for: content a migration lands on its destination
// disk stays claimed on the scanned sibling, so it still resolves after the
// destination's name moves onto a fresh, empty disk.
func TestObservationKeepsVouchedEntry(t *testing.T) {
	ix := NewIndex(blockdev.BlockSize)
	_, fps := warmDisk(t, ix, "sibling", 4, 1)
	for round := range 3 {
		dest := blockdev.NewMemDisk(4, blockdev.BlockSize)
		if err := ix.RegisterSource("dest", dest); err != nil {
			t.Fatal(err)
		}
		for k, fp := range fps {
			got, ok := lookup(ix, fp)
			if !ok {
				t.Fatalf("round %d: block %d's content did not resolve", round, k)
			}
			dest.WriteBlock(k, got)
			ix.Observe("dest", k, fp)
		}
	}
	if s := ix.Stats(); s.Vouched != 12 || s.Hashes != 4 {
		t.Errorf("stats %+v, want every lookup vouched and only the scan's 4 hashes", s)
	}
}

// readerView is a BlockReader over a device that is not the device itself,
// as a snapshot is: it forwards reads and hides every other method.
type readerView struct{ BlockReader }

// stampedView is a view that forwards the device's stamps too, as a wrapper
// that rewrites what it reads could.
type stampedView struct{ *blockdev.MemDisk }

// TestScanThroughViewRecordsNoStamp proves a scan records stamps only from
// the registered device itself: one through a view, even a view that
// forwards the device's stamps, or through another MemDisk holding the same
// bytes, leaves every entry to be re-hashed once.
func TestScanThroughViewRecordsNoStamp(t *testing.T) {
	disk := blockdev.NewMemDisk(4, blockdev.BlockSize)
	clone := blockdev.NewMemDisk(4, blockdev.BlockSize)
	for k := range 4 {
		fill(disk, k, 1+byte(k))
		fill(clone, k, 1+byte(k))
	}
	for name, view := range map[string]BlockReader{"view": readerView{disk}, "stamped view": stampedView{disk}, "clone": clone} {
		ix := NewIndex(blockdev.BlockSize)
		if err := ix.RegisterSource("d", disk); err != nil {
			t.Fatal(err)
		}
		if n, err := ix.ScanReader("d", view); err != nil || n != 4 {
			t.Fatalf("%s: scan indexed %d blocks, %v", name, n, err)
		}
		buf := make([]byte, blockdev.BlockSize)
		disk.ReadBlock(0, buf)
		for i, want := range []Stats{{Hashes: 1, Lookups: 1}, {Lookups: 1, Vouched: 1}} {
			if d := statsDelta(ix, func() { lookup(ix, Of(buf)) }); d != want {
				t.Errorf("%s: lookup %d: %+v, want %+v", name, i, d, want)
			}
		}
	}
}

// TestFileDiskRehashesEveryLookup proves a source that does not stamp its
// writes keeps verify-on-read: every lookup re-reads and re-hashes.
func TestFileDiskRehashesEveryLookup(t *testing.T) {
	disk, err := blockdev.CreateFileDisk(filepath.Join(t.TempDir(), "d.img"), 4, blockdev.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	buf := bytes.Repeat([]byte{0x5A}, blockdev.BlockSize)
	if err := disk.WriteBlock(1, buf); err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(blockdev.BlockSize)
	if err := ix.RegisterSource("f", disk); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ScanSource("f"); err != nil {
		t.Fatal(err)
	}
	d := statsDelta(ix, func() {
		for range 3 {
			if got, ok := lookup(ix, Of(buf)); !ok || !bytes.Equal(got, buf) {
				t.Fatal("the file's block did not resolve")
			}
		}
	})
	if d != (Stats{Hashes: 3, Lookups: 3}) {
		t.Errorf("three lookups on a FileDisk: %+v, want three re-hashes", d)
	}
}

// TestVouchedHitsUnderRewrites proves, under the race detector too, that a
// hit never carries bytes other than its fingerprint's while a writer
// rewrites the blocks of one shard of the registered MemDisk between two
// contents and observes each write, as a destination records what it lands.
// The other shard is never written, so its lookups are vouched for.
func TestVouchedHitsUnderRewrites(t *testing.T) {
	const n = 2 * blockdev.RunBlocks // two shards
	ix := NewIndex(blockdev.BlockSize)
	disk := blockdev.NewMemDisk(n, blockdev.BlockSize)
	contents := make([][2][]byte, n) // block → its two contents
	var fps []Fingerprint
	for k := range contents {
		for g := range 2 {
			contents[k][g] = bytes.Repeat([]byte{byte(k), byte(g + 1)}, blockdev.BlockSize/2)
			fps = append(fps, Of(contents[k][g]))
		}
		disk.WriteBlock(k, contents[k][0])
	}
	if err := ix.RegisterSource("d", disk); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ScanSource("d"); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	writer := make(chan struct{})
	go func() {
		defer close(writer)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k, g := i*7%blockdev.RunBlocks, i/blockdev.RunBlocks%2
			disk.WriteBlock(k, contents[k][g])
			ix.ObserveContent("d", k, contents[k][g])
		}
	}()
	var wg sync.WaitGroup
	hits := make([]int, 2)
	for r := range hits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, blockdev.BlockSize)
			for i := range 2000 {
				fp := fps[(i*5+r)%len(fps)]
				if !ix.LookupInto(fp, buf) {
					continue
				}
				if Of(buf) != fp {
					t.Errorf("a hit on %x… carried other bytes", fp[:4])
					return
				}
				hits[r]++
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-writer
	if s := ix.Stats(); hits[0] == 0 || hits[1] == 0 || s.Vouched == 0 {
		t.Errorf("hits %v, stats %+v: no hits or none vouched, the test proved nothing", hits, s)
	}
}
