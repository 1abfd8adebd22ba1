package hostd

// Snapshot-consistency suite for the Volume redesign: domains are hammered
// with guest writes while migrating, and the destination must land on the
// freeze-time image — pre-copy iterations read frozen CoW snapshots, so
// racing writes can tear nothing. Run with -race.

import (
	"math/rand"
	"sync"
	"testing"

	"bbmig/internal/blockdev"
	"bbmig/internal/blockdev/bcache"
	"bbmig/internal/core"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// TestMigrationSnapshotConsistencyUnderLoad drives its own write load
// through Domain.Submit during a live migration and checks the destination
// equals the freeze-time fingerprint — not whatever the live disk looked
// like while pre-copy reads were in flight.
func TestMigrationSnapshotConsistencyUnderLoad(t *testing.T) {
	A, B := NewMachine("A"), NewMachine("B")
	A.cacheBlocks = 256 // well under tBlocks: eviction runs during the test
	d, err := A.CreateDomain("guest", tBlocks, tPages, workload.Web, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	cache, ok := d.Disk().(*bcache.Cache)
	if !ok {
		t.Fatalf("domain disk is %T, want *bcache.Cache", d.Disk())
	}
	id := d.VM().DomainID

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			buf := make([]byte, blockdev.BlockSize)
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Read(buf[:64])
				req := blockdev.Request{
					Op: blockdev.Write, Block: r.Intn(tBlocks), Domain: id, Data: buf,
				}
				if err := d.Submit(req); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(int64(w))
	}

	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	resCh := make(chan error, 1)
	go func() {
		_, err := B.ServeOne(l, core.Config{})
		resCh <- err
	}()

	// The CoW assertion below needs a write while a pre-copy pass reads its
	// snapshot, which the test writers' scheduling does not promise. So the
	// migration's own send path writes too, once per disk pre-copy heartbeat
	// (one per MiB on the wire): the first pass alone carries several, and a
	// heartbeat falls outside a pass only when an iteration marker crosses
	// the MiB.
	heartbeat := make([]byte, blockdev.BlockSize)
	var freezeFP [32]byte
	cfg := core.Config{OnEvent: func(ev core.Event) {
		if ev.Kind != core.EventBytesTransferred || ev.Phase != core.PhaseDiskPreCopy {
			return
		}
		req := blockdev.Request{Op: blockdev.Write, Block: int(ev.Bytes>>20) % tBlocks, Domain: id, Data: heartbeat}
		if err := d.Submit(req); err != nil {
			t.Errorf("heartbeat write: %v", err)
		}
	}, OnFreeze: func() {
		// The engine is at the suspend point: quiesce the test writers, then
		// record the image every later phase must reproduce on B.
		close(stop)
		wg.Wait()
		var err error
		if freezeFP, err = blockdev.Fingerprint(d.Disk()); err != nil {
			t.Errorf("freeze fingerprint: %v", err)
		}
	}}
	if _, err := A.MigrateOut("guest", "B", l.Addr().String(), cfg); err != nil {
		t.Fatalf("migrate out: %v", err)
	}
	if err := <-resCh; err != nil {
		t.Fatalf("serve: %v", err)
	}

	dB, ok := B.Domain("guest")
	if !ok {
		t.Fatal("domain not hosted on B")
	}
	if dB.VM().State() != vm.Running {
		t.Fatal("domain not running on B")
	}
	gotFP, err := blockdev.Fingerprint(dB.Disk())
	if err != nil {
		t.Fatal(err)
	}
	if gotFP != freezeFP {
		t.Fatal("destination disk differs from the freeze-time image")
	}
	st := cache.Stats()
	if st.Snapshots != 0 {
		t.Fatalf("per-iteration snapshots leaked: %+v", st)
	}
	if st.CowCopies == 0 {
		t.Fatalf("writes raced the pre-copy snapshot but never CoW'd: %+v", st)
	}
}

// TestFileDiskDomainRoundTrip hosts a domain on a file-backed disk via
// CreateDomainOn — the API-ripple case the Volume interfaces exist for —
// and round-trips it A→B→A with a live workload.
func TestFileDiskDomainRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fd, err := blockdev.CreateFileDisk(dir+"/guest.img", tBlocks, blockdev.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()

	A, B := NewMachine("A"), NewMachine("B")
	d, err := A.CreateDomainOn("fvm", fd, tPages, workload.Web, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Disk().(*bcache.Cache); !ok {
		t.Fatalf("file-backed domain disk is %T, want a bcache volume", d.Disk())
	}

	hop(t, A, B, "fvm")
	dB, ok := B.Domain("fvm")
	if !ok {
		t.Fatal("domain not hosted on B")
	}
	dB.StopWorkload()

	// B's disk must equal A's retained frozen copy of the file-backed disk.
	A.mu.Lock()
	frozen := A.retained["fvm"]
	A.mu.Unlock()
	if frozen == nil {
		t.Fatal("A retained no copy")
	}
	diffs, err := blockdev.Diff(dB.Disk(), frozen)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("%d blocks differ between B's disk and A's frozen copy", len(diffs))
	}

	// Migrate back: the return trip rides the vault and stays incremental.
	rep := hop(t, B, A, "fvm")
	if rep.DiskIterations[0].Units >= tBlocks/2 {
		t.Fatalf("return trip sent %d blocks — not incremental", rep.DiskIterations[0].Units)
	}
	dA, ok := A.Domain("fvm")
	if !ok {
		t.Fatal("domain not back on A")
	}
	dA.StopWorkload()
	if _, ok := dA.Disk().(*bcache.Cache); !ok {
		t.Fatalf("returned domain disk is %T, want a bcache volume", dA.Disk())
	}
}
