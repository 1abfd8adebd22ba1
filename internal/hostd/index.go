// Machine-level content-fingerprint index maintenance: the destination side
// of content-addressed transfer (core.Config.Dedup) looks blocks up in one
// index per Machine, fed by every disk the machine can read back — retained
// peer copies of departed domains and the live disks of hosted domains
// (clone siblings of an inbound guest). The index lives in memory, like the
// retained disks its entries name; a stale entry degrades to a miss (every
// advert answered "send the literal"), never to wrong bytes — dedup.Index
// re-verifies content on every lookup.

package hostd

import (
	"bbmig/internal/blockdev"
	"bbmig/internal/dedup"
)

// diskSourceName is the stable index-source name for one domain's disk. The
// same name follows the disk between the hosted and retained states (the
// Volume object itself is what MigrateOut retains), so observations made
// while a domain was hosted keep resolving after it departs.
func diskSourceName(domain string) string { return "disk/" + domain }

// ContentIndex returns the machine's content-fingerprint index, creating an
// empty one on first use. The index is shared by every inbound migration
// and pre-sync this machine serves; it is concurrency-safe.
func (m *Machine) ContentIndex() *dedup.Index {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.contentIndexLocked()
}

func (m *Machine) contentIndexLocked() *dedup.Index {
	if m.idx == nil {
		m.idx = dedup.NewIndex(blockdev.BlockSize)
		m.idxScanned = make(map[string]blockdev.Device)
	}
	return m.idx
}

// prepareDedup readies the index for an inbound dedup migration or
// pre-sync: every retained and hosted disk is registered as a lookup source
// and fingerprinted once if the index has never scanned it. That includes a
// returning domain's own retained copy — the disk the migration is about to
// overwrite — whose pre-existing content is exactly what a migrate-back
// references; references are materialized from advert-time staged copies,
// so self-referential content stays correct even as literals land around
// it. After the migration the engine's live observations cover the disk, so
// each source is scanned at most once per process.
func (m *Machine) prepareDedup() *dedup.Index {
	m.mu.Lock()
	idx := m.contentIndexLocked()
	disks := make(map[string]blockdev.Device, len(m.domains)+len(m.retained))
	// Retained copies first, hosted domains second: when a name is somehow
	// in both maps (a re-provisioned domain whose stale retained copy was
	// not reusable), the live disk must win the registration.
	for name, disk := range m.retained {
		disks[name] = disk
	}
	for name, d := range m.domains {
		disks[name] = d.disk
	}
	scanned := m.idxScanned
	m.mu.Unlock()

	for name, disk := range disks {
		src := diskSourceName(name)
		_ = idx.RegisterSource(src, disk) // block sizes are uniform here
		// Scan-once is per disk object, not per name: if the registration
		// re-points (a domain re-provisioned onto a fresh disk), the new
		// disk's content still needs one fingerprint pass.
		m.mu.Lock()
		todo := scanned[src] != disk
		scanned[src] = disk
		m.mu.Unlock()
		if todo {
			// The fingerprint pass reads a frozen snapshot when the disk is
			// a Volume (hosted domains always are): the scan cannot contend
			// with — or be torn by — the guest's live writes. Lookups still
			// verify against the registered live disk, so a block the guest
			// overwrites mid-scan degrades to a miss, never to wrong bytes.
			view, release := blockdev.SnapshotOf(disk)
			_, _ = idx.ScanReader(src, view) // best effort: a failed scan only costs hits
			release()
		}
	}
	return idx
}

// noteIndexed marks the inbound domain's disk as covered by live
// observations, so the next prepareDedup does not rescan what the engine
// already indexed block by block.
func (m *Machine) noteIndexed(domain string) {
	m.mu.Lock()
	if m.idxScanned != nil {
		if d, ok := m.domains[domain]; ok {
			m.idxScanned[diskSourceName(domain)] = d.disk
		}
	}
	m.mu.Unlock()
}

// dropIndexedDisk unregisters a domain's disk from the index and forgets
// its scan state — the cleanup for an inbound dedup migration that failed:
// the abandoned VBD must not stay pinned in (and answering adverts from)
// the machine-wide index.
func (m *Machine) dropIndexedDisk(domain string) {
	src := diskSourceName(domain)
	m.mu.Lock()
	idx := m.idx
	if m.idxScanned != nil {
		delete(m.idxScanned, src)
	}
	m.mu.Unlock()
	if idx != nil {
		idx.DropSource(src)
	}
}
