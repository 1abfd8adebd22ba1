// Load reporting and incremental pre-sync — the hostd surface the cluster
// orchestrator builds on. Load() is the per-machine utilization report a
// cluster heartbeat collects; SyncOut/ServeSync push a domain's divergence
// to a peer's retained-disk store *without* migrating, so a later MigrateOut
// to that peer ships only the blocks written since — the paper's IM applied
// as a pre-sync that shrinks the cutover window of planned maintenance.

package hostd

import (
	"fmt"
	"net"
	"sort"

	"bbmig/internal/blockdev"
	"bbmig/internal/core"
	"bbmig/internal/transport"
)

// Load is a point-in-time utilization snapshot of one Machine: the
// per-machine load report the cluster layer's register/heartbeat path
// collects to drive placement and admission decisions.
type Load struct {
	// Domains is the number of guests currently hosted.
	Domains int
	// Blocks is the total VBD size across hosted guests, in blocks — the
	// capacity proxy placement scores against.
	Blocks int64
	// ActiveMigrations counts in-flight inbound plus outbound migrations.
	ActiveMigrations int
	// RetainedDisks counts peer copies held for departed domains; a
	// migration of one of those domains back here is incremental.
	RetainedDisks int
	// Retained names the domains whose peer copies this machine holds,
	// sorted. The cluster's placement engine weights content overlap with
	// it: migrating a domain toward a host that retains its disk is both
	// positionally incremental (the vault) and content-deduplicable (the
	// fingerprint index).
	Retained []string
	// DomainWrites maps each hosted domain to its backend's cumulative
	// block-write counter. Successive heartbeats turn the deltas into
	// dirty-rate observations — the raw feed of the cluster layer's
	// forecast models. The counter restarts from zero when a domain
	// migrates (the destination builds a fresh backend); consumers treat a
	// backwards step as a restart.
	DomainWrites map[string]int64
}

// Load reports the machine's current utilization.
func (m *Machine) Load() Load {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := Load{
		Domains:          len(m.domains),
		ActiveMigrations: len(m.migrating),
		RetainedDisks:    len(m.retained),
		DomainWrites:     make(map[string]int64, len(m.domains)),
	}
	for name := range m.retained {
		l.Retained = append(l.Retained, name)
	}
	sort.Strings(l.Retained)
	for name, d := range m.domains {
		l.Blocks += int64(d.disk.NumBlocks())
		l.DomainWrites[name] = d.backend.Stats().Writes
	}
	return l
}

// SyncReport summarizes one pre-sync transfer: the engine's per-endpoint
// stats under the synced domain's name. On the source, WireBytes includes the
// announce frame.
type SyncReport struct {
	// Domain is the synced domain's name.
	Domain string
	core.SyncStats
}

// SyncOut pushes the named domain's divergence against destHost to the
// machine serving ServeSync at addr, without migrating: the destination
// stores the blocks in its retained-disk store and the local vault marks
// destHost synced, while the guest keeps running throughout (writes racing
// or following the sync re-diverge and travel later). A MigrateOut to
// destHost afterwards ships only the blocks written since — the incremental
// pre-sync the paper prescribes for planned maintenance, shrinking the final
// cutover window from a whole-disk copy to the recent write set.
//
// The transfer itself is the engine's disk-only scheme (core.SyncSource);
// what is hostd's is the announce, the vault ordering and the snapshot.
// Honoured cfg fields: BandwidthLimit and Policy pace the transfer (the
// pacing verdict is re-read per frame, so a core.BudgetPolicy shares a
// cluster budget live), MaxExtentBlocks coalesces runs, Dedup ships content
// the peer can already produce by reference, Clock times and paces it. The
// sync stream is always a single uncompressed, non-delta connection.
//
// On any failure the shipped set is re-diverged in the vault, so a torn sync
// can never make a later incremental migration skip blocks the destination
// missed.
func (m *Machine) SyncOut(domainName, destHost, addr string, cfg core.Config) (*SyncReport, error) {
	m.mu.Lock()
	d, ok := m.domains[domainName]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("hostd: no domain %q on %s", domainName, m.Name)
	}
	bm := d.vault.InitialFor(destHost)
	rep := &SyncReport{Domain: domainName}
	if bm.Count() == 0 {
		return rep, nil // destHost already holds an identical copy
	}

	conn, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	mem := d.vmRef.Memory()
	ann := announce{
		name:    domainName,
		srcHost: m.Name,
		geom: transport.Geometry{
			BlockSize: d.disk.BlockSize(), NumBlocks: d.disk.NumBlocks(),
			PageSize: mem.PageSize(), NumPages: mem.NumPages(),
		},
		kind: d.workKind, work: d.hasWork, streams: 1,
		dedup: cfg.Dedup,
	}
	ab, err := ann.marshal()
	if err != nil {
		return nil, err
	}
	annMsg := transport.Message{Type: transport.MsgAnnounce, Payload: ab}
	if err := conn.Send(annMsg); err != nil {
		return nil, err
	}

	// Mark synced BEFORE reading any block: a write landing after this point
	// is re-recorded as divergence even if the sync's read misses it, and a
	// write landing before it is on the disk the reads observe. Either way no
	// write can fall between the synced set and the divergence set.
	d.vault.MarkSynced(destHost)
	// Freeze the read side on a snapshot taken after the mark: every block
	// the sync ships is the disk's content at this instant, so the peer copy
	// is a consistent image rather than a live-read race, and the guest's
	// writes proceed against the volume without contending with the pass.
	// A write that lands after the mark but before the snapshot is both in
	// the snapshot and re-diverged — shipped now and again later, safe twice.
	src, releaseSnap := blockdev.SnapshotOf(d.disk)
	defer releaseSnap()

	rep.SyncStats, err = core.SyncSource(core.Config{
		Clock: cfg.Clock, BandwidthLimit: cfg.BandwidthLimit, Policy: cfg.Policy,
		MaxExtentBlocks: cfg.MaxExtentBlocks, Dedup: cfg.Dedup,
	}, src, conn, bm)
	rep.WireBytes += int64(annMsg.FrameSize())
	if err != nil {
		d.vault.DivergePeer(destHost, bm) // a torn sync re-diverges the whole attempt
		return rep, fmt.Errorf("hostd: sync: %w", err)
	}
	return rep, nil
}

// ServeSync accepts exactly one inbound pre-sync on l and applies it to this
// machine's retained-disk store: the named domain's peer copy is created (or
// updated in place) so a later inbound migration of that domain runs
// incrementally. The domain itself does not move and no VM shell is created.
// The frames are applied by the engine's disk-only scheme (core.SyncDest).
func (m *Machine) ServeSync(l net.Listener) (*SyncReport, error) {
	conn, err := transport.Accept(l)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	first, err := conn.Recv()
	if err != nil {
		return nil, err
	}
	if first.Type != transport.MsgAnnounce {
		return nil, fmt.Errorf("hostd: expected ANNOUNCE, got %v", first.Type)
	}
	ann, err := unmarshalAnnounce(first.Payload)
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	if _, exists := m.domains[ann.name]; exists {
		m.mu.Unlock()
		return nil, fmt.Errorf("hostd: domain %q is hosted on %s; sync targets only peer copies", ann.name, m.Name)
	}
	disk := m.retained[ann.name]
	if disk == nil || disk.NumBlocks() != ann.geom.NumBlocks {
		disk = m.newVolumeLocked(blockdev.NewMemDisk(ann.geom.NumBlocks, blockdev.BlockSize))
		m.retained[ann.name] = disk
	}
	m.mu.Unlock()

	// A dedup'd sync answers adverts from the machine index; the synced
	// disk itself is a registered source, so content the peer copy already
	// holds elsewhere (or clone siblings hold) never retransmits.
	var cfg core.Config
	if ann.dedup {
		cfg.DedupIndex, cfg.DedupName = m.prepareDedup(), diskSourceName(ann.name)
	}
	rep := &SyncReport{Domain: ann.name}
	rep.SyncStats, err = core.SyncDest(cfg, disk, conn)
	if err != nil {
		return rep, fmt.Errorf("hostd: sync: %w", err)
	}
	return rep, nil
}
