package dedup

import (
	"bytes"
	"sync"
	"testing"

	"bbmig/internal/blockdev"
	"bbmig/internal/transport"
)

// warmDisk returns a disk of n distinct non-zero blocks (seeded so two disks
// with different seeds share no content), its fingerprints in block order,
// and an index that has scanned it under name.
func warmDisk(t *testing.T, ix *Index, name string, n int, seed byte) (*blockdev.MemDisk, []Fingerprint) {
	t.Helper()
	disk := blockdev.NewMemDisk(n, blockdev.BlockSize)
	fps := make([]Fingerprint, n)
	buf := make([]byte, blockdev.BlockSize)
	for k := range fps {
		fill(disk, k, seed+byte(k))
		disk.ReadBlock(k, buf)
		fps[k] = Of(buf)
	}
	if err := ix.RegisterSource(name, disk); err != nil {
		t.Fatal(err)
	}
	if got, err := ix.ScanSource(name); err != nil || got != n {
		t.Fatalf("scan of %s: %d blocks, %v", name, got, err)
	}
	return disk, fps
}

// checkStaged materializes every fingerprint of an advert and compares it
// with the disk content the advert was answered from.
func checkStaged(t *testing.T, ix *Index, st *Stage, disk *blockdev.MemDisk, fps []Fingerprint) {
	t.Helper()
	want := make([]byte, blockdev.BlockSize)
	for k, fp := range fps {
		got, ok := ix.Materialize(st, fp)
		disk.ReadBlock(k, want)
		if !ok || !bytes.Equal(got, want) {
			t.Errorf("block %d: staged content missing or wrong (ok=%v)", k, ok)
			return
		}
	}
}

// TestAnswerMatchesAllocatingForm pins the reply semantics the in-place
// answer inherited: hits staged and unwanted, misses wanted every time they
// are named, zeros and repeats of a staged fingerprint neither.
func TestAnswerMatchesAllocatingForm(t *testing.T) {
	ix := NewIndex(blockdev.BlockSize)
	disk, known := warmDisk(t, ix, "d", 4, 1)
	unknown := Of([]byte("nobody holds this"))
	zero := ZeroFingerprint(blockdev.BlockSize)
	fps := []Fingerprint{known[0], unknown, zero, known[0], known[3], unknown, zero}
	var st Stage
	want := ix.AnswerInto(&st, fps)
	if len(want) != WantLen(len(fps)) {
		t.Fatalf("want bitmap %d bytes for %d fingerprints", len(want), len(fps))
	}
	for k, wanted := range []bool{false, true, false, false, false, true, false} {
		if Want(want, k) != wanted {
			t.Errorf("position %d: wanted = %v, expected %v", k, Want(want, k), wanted)
		}
	}
	buf := make([]byte, blockdev.BlockSize)
	for _, k := range []int{0, 3} {
		got, ok := ix.Materialize(&st, known[k])
		disk.ReadBlock(k, buf)
		if !ok || !bytes.Equal(got, buf) {
			t.Errorf("block %d not staged", k)
		}
	}
	if z, ok := ix.Materialize(&st, zero); !ok || !IsZero(z) || len(z) != blockdev.BlockSize {
		t.Error("zero fingerprint did not materialize as a zero block")
	}
	if _, ok := ix.Materialize(&st, unknown); ok {
		t.Error("unknown fingerprint materialized")
	}
	// The allocating wrapper answers the same.
	want2, st2 := ix.Answer(fps)
	if !bytes.Equal(want, want2) {
		t.Errorf("Answer wants %08b, AnswerInto %08b", want2, want)
	}
	if got, ok := ix.Materialize(st2, known[3]); !ok || !bytes.Equal(got, buf) {
		t.Error("Answer's stage does not hold block 3")
	}
}

// TestStageSurvivesOverwriteUntilNextAdvert: content is captured at advert
// time, so a guest write under the index between the advert and its
// references changes nothing; the next advert replaces the stage, and with
// the pool's poison mode on the replaced content is scribbled over rather
// than left readable.
func TestStageSurvivesOverwriteUntilNextAdvert(t *testing.T) {
	transport.SetBufPoison(true)
	defer transport.SetBufPoison(false)
	ix := NewIndex(blockdev.BlockSize)
	disk, fps := warmDisk(t, ix, "d", 8, 1)
	frozen := blockdev.NewMemDisk(8, blockdev.BlockSize)
	buf := make([]byte, blockdev.BlockSize)
	for k := 0; k < 8; k++ {
		disk.ReadBlock(k, buf)
		frozen.WriteBlock(k, buf)
	}
	var st Stage
	ix.AnswerInto(&st, fps)
	old, _ := ix.Materialize(&st, fps[2])
	for k := 0; k < 8; k++ {
		fill(disk, k, 0xF0+byte(k))
	}
	checkStaged(t, ix, &st, frozen, fps)

	ix.AnswerInto(&st, fps[:1]) // fps[0] no longer verifies: nothing is staged
	if _, ok := ix.Materialize(&st, fps[2]); ok {
		t.Error("a reference reached the advert before the last one")
	}
	frozen.ReadBlock(2, buf)
	if bytes.Equal(old, buf) {
		t.Error("content of a replaced stage is still readable through an old slice")
	}
	st.Release()
	st.Release() // idempotent
}

// TestAnswerVerifiesOnRead: every advert re-reads what it stages and proves
// it, by an unchanged write stamp or a re-hash, so a later advert of a
// fingerprint whose block was overwritten wants the literal, and a dropped
// source answers nothing. Stats counts each hash the index makes, observed
// content included.
func TestAnswerVerifiesOnRead(t *testing.T) {
	ix := NewIndex(blockdev.BlockSize)
	disk, fps := warmDisk(t, ix, "d", 4, 1)
	var st Stage
	defer st.Release()
	answers := func(fp Fingerprint) bool {
		if Want(ix.AnswerInto(&st, []Fingerprint{fp}), 0) {
			return false
		}
		if _, ok := ix.Materialize(&st, fp); !ok {
			t.Fatal("an unwanted fingerprint was not staged")
		}
		return true
	}
	if !answers(fps[0]) || !answers(fps[1]) {
		t.Fatal("a scanned fingerprint is wanted")
	}
	fill(disk, 0, 0xE0) // a guest write the index has not seen
	if answers(fps[0]) {
		t.Error("an advert staged a fingerprint whose block was overwritten")
	}
	buf := make([]byte, blockdev.BlockSize)
	disk.ReadBlock(0, buf)
	ix.ObserveContent("d", 0, buf) // a landed block, as the destination records it
	if !answers(Of(buf)) {
		t.Error("observed content is wanted")
	}
	ix.DropSource("d")
	if answers(fps[1]) || answers(Of(buf)) {
		t.Error("a dropped source still answers adverts")
	}
	// Four scanned blocks; two answers their scan's stamps vouch for; one
	// re-hash that missed; one observed block and its re-hashed answer;
	// nothing after the drop.
	if s := ix.Stats(); s.Hashes != 4+0+1+1+1 || s.Lookups != 6 || s.Vouched != 2 || s.ScanSkipped != 0 {
		t.Errorf("stats %+v, want 7 hashes, 6 lookups, 2 vouched", s)
	}
}

// TestSessionsShareIndexNotStage runs two destination sessions against one
// index, as concurrent inbound migrations on one host daemon do: adverts
// interleave, and each session's references still find its own content.
func TestSessionsShareIndexNotStage(t *testing.T) {
	ix := NewIndex(blockdev.BlockSize)
	diskA, fpsA := warmDisk(t, ix, "a", 32, 1)
	diskB, fpsB := warmDisk(t, ix, "b", 32, 101)

	// In lockstep: B's advert lands between A's advert and A's references.
	var stA, stB Stage
	ix.AnswerInto(&stA, fpsA)
	ix.AnswerInto(&stB, fpsB)
	checkStaged(t, ix, &stA, diskA, fpsA)
	checkStaged(t, ix, &stB, diskB, fpsB)
	if _, staged := stA.slots[fpsB[0]]; staged {
		t.Error("session A staged session B's content")
	}

	// Free-running, for the race detector.
	var wg sync.WaitGroup
	for _, fps := range [][]Fingerprint{fpsA, fpsB, fpsA[8:24]} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st Stage
			defer st.Release()
			for i := 0; i < 50; i++ {
				if want := ix.AnswerInto(&st, fps); !bytes.Equal(want, make([]byte, len(want))) {
					t.Errorf("warm index wants literals: %08b", want)
					return
				}
				for _, fp := range fps {
					if got, ok := ix.Materialize(&st, fp); !ok || Of(got) != fp {
						t.Error("a session's reference found another session's content")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSessionPathAllocations holds the steady state of the destination's
// dedup session to a handful of allocations per advert: parsing 64
// fingerprints, answering them from a warm index and materializing every
// reference used to cost one 4 KiB block per fingerprint and a map per advert.
func TestSessionPathAllocations(t *testing.T) {
	ix := NewIndex(blockdev.BlockSize)
	_, fps := warmDisk(t, ix, "d", 64, 1)
	fps[7], fps[40] = ZeroFingerprint(blockdev.BlockSize), fps[3]
	payload := AppendFingerprints(nil, fps)
	var st Stage
	var scratch []Fingerprint
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if scratch, err = ParseFingerprintsInto(scratch, payload, len(fps)); err != nil {
			t.Fatal(err)
		}
		if want := ix.AnswerInto(&st, scratch); !bytes.Equal(want, make([]byte, 8)) {
			t.Fatalf("warm index wants literals: %08b", want)
		}
		for _, fp := range scratch {
			if _, ok := ix.Materialize(&st, fp); !ok {
				t.Fatal("reference not materialized")
			}
		}
	})
	if allocs > 4 {
		t.Errorf("one advert answered and materialized: %.1f allocations, want <= 4", allocs)
	}
}

// TestZeroFingerprintAnySize: the zero fingerprint is right, and hashed
// once, at every block size, from any number of goroutines.
func TestZeroFingerprintAnySize(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, bs := range []int{512, 4096, 8192, 65536} {
				if ZeroFingerprint(bs) != Of(make([]byte, bs)) {
					t.Errorf("ZeroFingerprint(%d) is not the fingerprint of %d zero bytes", bs, bs)
				}
			}
		}()
	}
	wg.Wait()
	if n := testing.AllocsPerRun(10, func() { ZeroFingerprint(8192) }); n > 1 {
		t.Errorf("ZeroFingerprint(8192) allocates %.0f times a call: not cached", n)
	}
	for _, n := range []int{0, 1, 4095, 4096, 4097, 3 * 4096, 3*4096 + 5} {
		p := make([]byte, n)
		if !IsZero(p) {
			t.Errorf("IsZero(%d zero bytes) = false", n)
		}
		if n > 0 {
			p[n-1] = 1
			if IsZero(p) {
				t.Errorf("IsZero missed a set last byte of %d", n)
			}
			p[n-1], p[0] = 0, 1
			if IsZero(p) {
				t.Errorf("IsZero missed a set first byte of %d", n)
			}
		}
	}
}
