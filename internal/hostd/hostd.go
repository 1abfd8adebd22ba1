// Package hostd is the host-daemon layer above the migration engine: the
// role Domain0's toolstack (xend, xc_linux_save/restore) plays in the
// paper's testbed. A Machine hosts multiple guest domains — the evaluation
// runs "two domains concurrently on each physical machine" — provisions a
// VBD for inbound migrations, drives each guest's synthetic workload, and
// orchestrates outbound migrations. The per-domain Vault travels with the
// VM, so migrating to any previously visited host is automatically
// incremental (the paper's §VII multi-host future-work item).
//
// Wire protocol: an outbound migration opens a connection, sends one
// MsgAnnounce frame (domain name, source host, geometry, workload), runs the
// ordinary engine protocol, and finishes with a second MsgAnnounce frame
// carrying the domain's serialized vault — sent after the freeze, so it
// covers every write the guest ever made on the source.
package hostd

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/blockdev/bcache"
	"bbmig/internal/clock"
	"bbmig/internal/core"
	"bbmig/internal/dedup"
	"bbmig/internal/metrics"
	"bbmig/internal/transport"
	"bbmig/internal/vm"
	"bbmig/internal/workload"
)

// Domain is one guest managed by a Machine: the VM, its local disk, the I/O
// plumbing, and the divergence vault that travels with it. The disk is a
// blockdev.Volume — a cached, snapshot-capable view over whatever backing
// device the domain was provisioned on (MemDisk by default, a FileDisk via
// CreateDomainOn) — so migrations, pre-syncs, and index scans read frozen
// point-in-time snapshots while the guest keeps writing.
type Domain struct {
	Name string

	vmRef   *vm.VM
	disk    blockdev.Volume
	backend *blkback.Backend
	router  *core.Router
	vault   *core.Vault

	workKind workload.Kind
	workSeed int64
	hasWork  bool
	stopWork chan struct{}
	workWG   sync.WaitGroup
}

// VM returns the guest.
func (d *Domain) VM() *vm.VM { return d.vmRef }

// Disk returns the guest's VBD as a snapshot-capable Volume.
func (d *Domain) Disk() blockdev.Volume { return d.disk }

// Vault returns the divergence vault (for inspection by tests and tools).
func (d *Domain) Vault() *core.Vault { return d.vault }

// Submit routes one I/O request through the domain's current path and
// records writes in the vault, for callers driving their own load instead of
// a built-in workload. Every guest write MUST go through here (or the
// built-in workload, which does): a write that bypasses the vault would be
// invisible to future incremental migrations.
func (d *Domain) Submit(req blockdev.Request) error {
	if err := d.router.Submit(req); err != nil {
		return err
	}
	if req.Op == blockdev.Write && req.Domain == d.vmRef.DomainID {
		d.vault.RecordWriteRange(req.Block, req.Block+1)
	}
	return nil
}

// startWorkload launches (or relaunches) the domain's synthetic load; each
// launch advances the seed so the guest's processes produce new I/O after a
// migration rather than replaying the old trace.
func (d *Domain) startWorkload() {
	d.stopWork = make(chan struct{})
	d.workSeed++
	gen := workload.New(d.workKind, d.disk.NumBlocks(), d.workSeed)
	stop := d.stopWork
	d.workWG.Add(1)
	go func() {
		defer d.workWG.Done()
		// speedup 200: a laptop-scale stand-in for a continuously busy guest
		_, _ = workload.Replay(clock.NewReal(), gen, d.vmRef.DomainID, 24*time.Hour, 200, d.Submit, stop)
	}()
}

// StopWorkload quiesces the domain's workload, waiting for in-flight I/O.
func (d *Domain) StopWorkload() {
	if d.stopWork == nil {
		return
	}
	close(d.stopWork)
	d.workWG.Wait()
	d.stopWork = nil
}

// Machine is one physical host running a set of domains.
type Machine struct {
	Name string

	mu        sync.Mutex
	domains   map[string]*Domain
	retained  map[string]blockdev.Volume // disks of departed domains
	migrating map[string]*core.ProgressTracker
	nextID    int

	// cacheBlocks sizes the block cache wrapped around each newly
	// provisioned volume (0 = bcache.DefaultMaxBlocks); tests shrink it to
	// make eviction run.
	cacheBlocks int

	// content-dedup state (see index.go): the machine-wide fingerprint
	// index and which disk sources have been scanned into it.
	idx        *dedup.Index
	idxScanned map[string]blockdev.Device
}

// NewMachine returns an empty Machine.
func NewMachine(name string) *Machine {
	return &Machine{
		Name:      name,
		domains:   make(map[string]*Domain),
		retained:  make(map[string]blockdev.Volume),
		migrating: make(map[string]*core.ProgressTracker),
		nextID:    1,
	}
}

// newVolumeLocked wraps dev in this machine's block cache, making it a
// snapshot-capable Volume; a device that already is one is used as-is.
// Caller holds m.mu.
func (m *Machine) newVolumeLocked(dev blockdev.Device) blockdev.Volume {
	if v, ok := dev.(blockdev.Volume); ok {
		return v
	}
	return bcache.New(dev, m.cacheBlocks)
}

// trackMigration registers a progress tracker for an in-flight migration of
// the named domain and chains it into cfg's event stream. The returned
// function unregisters it.
func (m *Machine) trackMigration(name string, cfg *core.Config) func() {
	tracker := core.NewProgressTracker()
	cfg.OnEvent = core.ChainEvents(tracker.Handle, cfg.OnEvent)
	m.mu.Lock()
	m.migrating[name] = tracker
	m.mu.Unlock()
	return func() {
		m.mu.Lock()
		delete(m.migrating, name)
		m.mu.Unlock()
	}
}

// MigrationProgress reports the live state of an in-flight migration
// (inbound or outbound) of the named domain: current phase, completed
// iterations, wire bytes moved, suspend/resume milestones. ok is false when
// no migration of that domain is running here.
func (m *Machine) MigrationProgress(name string) (p core.Progress, ok bool) {
	m.mu.Lock()
	t := m.migrating[name]
	m.mu.Unlock()
	if t == nil {
		return core.Progress{}, false
	}
	return t.Snapshot(), true
}

// ActiveMigrations lists the domains currently migrating to or from this
// machine.
func (m *Machine) ActiveMigrations() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.migrating))
	for n := range m.migrating {
		names = append(names, n)
	}
	return names
}

// Domains lists the names of the domains currently hosted here.
func (m *Machine) Domains() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.domains))
	for n := range m.domains {
		names = append(names, n)
	}
	return names
}

// Domain looks up a hosted domain.
func (m *Machine) Domain(name string) (*Domain, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.domains[name]
	return d, ok
}

// CreateDomain provisions and starts a fresh guest on a RAM-backed VBD.
// With hasWorkload the built-in generator of the given kind drives it
// continuously.
func (m *Machine) CreateDomain(name string, blocks, pages int, kind workload.Kind, seed int64, hasWorkload bool) (*Domain, error) {
	return m.CreateDomainOn(name, blockdev.NewMemDisk(blocks, blockdev.BlockSize), pages, kind, seed, hasWorkload)
}

// CreateDomainOn provisions and starts a fresh guest on a caller-supplied
// backing device — a blockdev.FileDisk for a durable guest image, or any
// other Device. Geometry is taken from the device. The device is wrapped in
// the machine's block cache (becoming a snapshot-capable Volume) unless it
// already is one; with a write-back cache in front, flush the volume
// (Disk().Release or bcache.Cache.Flush) before reading the backing file
// directly.
func (m *Machine) CreateDomainOn(name string, dev blockdev.Device, pages int, kind workload.Kind, seed int64, hasWorkload bool) (*Domain, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.domains[name]; exists {
		return nil, fmt.Errorf("hostd: domain %q already exists on %s", name, m.Name)
	}
	id := m.nextID
	m.nextID++
	vol := m.newVolumeLocked(dev)
	d := &Domain{
		Name:     name,
		vmRef:    vm.New(name, id, pages, 1024),
		disk:     vol,
		vault:    core.NewVault(vol.NumBlocks()),
		workKind: kind,
		workSeed: seed,
		hasWork:  hasWorkload,
	}
	d.backend = blkback.NewBackend(d.disk, id)
	d.router = core.NewRouter(d.backend.Submit)
	m.domains[name] = d
	if hasWorkload {
		d.startWorkload()
	}
	return d, nil
}

// announce is the first MsgAnnounce payload: identity, geometry, the
// transport stream count the sender will open (the bundle is built before
// the engine runs), and two host-preparation hints. Everything the engine
// can see on the wire — compression, dedup and delta frames, a resumable
// session — it follows by itself; the hints only let the receiving host make
// the most of it, and correctness never depends on them.
type announce struct {
	name    string
	srcHost string
	geom    transport.Geometry
	kind    workload.Kind
	work    bool
	streams int
	dedup   bool // ready the machine's fingerprint index: adverts will come
	swarm   bool // the sender permits sidecar fetches from peer hosts
}

// announce header layout: the fixed prefix before the variable-length
// fields, and the bits of its flags byte.
const (
	announceHeaderLen = 8
	announceDedup     = 1 << 0
	announceSwarm     = 1 << 1
)

func (a announce) marshal() ([]byte, error) {
	gb, err := a.geom.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, announceHeaderLen)
	binary.LittleEndian.PutUint16(out[0:], uint16(len(a.name)))
	binary.LittleEndian.PutUint16(out[2:], uint16(len(a.srcHost)))
	out[4] = byte(a.kind)
	if a.work {
		out[5] = 1
	}
	out[6] = byte(a.streams) // 0 reads as 1: pre-striping senders
	if a.dedup {
		out[7] |= announceDedup
	}
	if a.swarm {
		out[7] |= announceSwarm
	}
	out = append(out, a.name...)
	out = append(out, a.srcHost...)
	out = append(out, gb...)
	return out, nil
}

func unmarshalAnnounce(data []byte) (announce, error) {
	var a announce
	if len(data) < announceHeaderLen {
		return a, fmt.Errorf("hostd: announce truncated")
	}
	nameLen := int(binary.LittleEndian.Uint16(data[0:]))
	srcLen := int(binary.LittleEndian.Uint16(data[2:]))
	a.kind = workload.Kind(data[4])
	if data[5] > 1 {
		return a, fmt.Errorf("hostd: announce workload flag %d", data[5])
	}
	a.work = data[5] == 1
	a.streams = max(int(data[6]), 1)
	if flags := data[7]; flags&^(announceDedup|announceSwarm) != 0 {
		return a, fmt.Errorf("hostd: announce flags %#x not understood", flags)
	}
	a.dedup = data[7]&announceDedup != 0
	a.swarm = data[7]&announceSwarm != 0
	const geomLen = 32
	if len(data) != announceHeaderLen+nameLen+srcLen+geomLen {
		return a, fmt.Errorf("hostd: announce length %d inconsistent", len(data))
	}
	a.name = string(data[announceHeaderLen : announceHeaderLen+nameLen])
	a.srcHost = string(data[announceHeaderLen+nameLen : announceHeaderLen+nameLen+srcLen])
	return a, a.geom.UnmarshalBinary(data[announceHeaderLen+nameLen+srcLen:])
}

// MigrateOut migrates a domain to the machine listening at addr. If the
// domain's vault knows destHost, only the divergent blocks travel. On
// success the domain leaves this machine; its disk is retained as the local
// peer copy so the domain can return incrementally.
func (m *Machine) MigrateOut(domainName, destHost, addr string, cfg core.Config) (*metrics.Report, error) {
	m.mu.Lock()
	d, ok := m.domains[domainName]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("hostd: no domain %q on %s", domainName, m.Name)
	}

	streams := cfg.Streams
	if streams < 1 {
		streams = 1
	}
	if streams > transport.MaxStreams {
		streams = transport.MaxStreams // the announce carries the count in one byte
	}
	conn0, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}

	mem := d.vmRef.Memory()
	ann := announce{
		name:    domainName,
		srcHost: m.Name,
		geom: transport.Geometry{
			BlockSize: d.disk.BlockSize(), NumBlocks: d.disk.NumBlocks(),
			PageSize: mem.PageSize(), NumPages: mem.NumPages(),
		},
		kind:    d.workKind,
		work:    d.hasWork,
		streams: streams,
		dedup:   cfg.Dedup,
		swarm:   cfg.Dedup && len(cfg.SwarmPeers) > 0,
	}
	ab, err := ann.marshal()
	if err != nil {
		conn0.Close()
		return nil, err
	}
	if err := conn0.Send(transport.Message{Type: transport.MsgAnnounce, Payload: ab}); err != nil {
		conn0.Close()
		return nil, err
	}
	// The announce names the stream count; dial the extra data streams and
	// label each so the destination can reassemble the bundle.
	var conn transport.Conn = conn0
	if streams > 1 {
		striped, err := transport.DialExtraStreams(addr, conn0, streams, nil)
		if err != nil {
			return nil, fmt.Errorf("hostd: %w", err)
		}
		conn = striped
	}
	// With retries enabled, each reconnect re-dials a single plain stream
	// (resumed epochs trade striping for simplicity; compression carries
	// over inside the engine). cur tracks the live link so the vault ships
	// over whatever connection the migration ended on.
	cur := conn
	if cfg.MaxRetries > 0 {
		cfg.Redial = func() (transport.Conn, error) {
			c, err := transport.Dial(addr)
			if err != nil {
				return nil, err
			}
			cur = c
			return c, nil
		}
	}
	defer func() { cur.Close() }()

	// Seed incremental migration from the vault's view of the destination;
	// writes from here to the freeze are tracked by the backend as usual.
	d.backend.SeedDirty(d.vault.InitialFor(destHost))

	userFreeze := cfg.OnFreeze
	cfg.OnFreeze = func() {
		if userFreeze != nil {
			userFreeze()
		}
		d.StopWorkload()
		d.router.Freeze()
	}
	untrack := m.trackMigration(domainName, &cfg)
	defer untrack()
	rep, err := core.MigrateSource(cfg, core.Host{VM: d.vmRef, Backend: d.backend}, conn, d.backend.SwapDirty())
	if err != nil {
		// The guest must keep running here on failure, unfrozen unless the
		// destination runs it (a Resume error only says it was never frozen).
		if p, _ := m.MigrationProgress(domainName); !p.Resumed {
			_ = d.vmRef.Resume()
		}
		d.router.ResumeAt(d.backend.Submit)
		if d.hasWork && d.stopWork == nil {
			d.startWorkload()
		}
		return rep, err
	}

	// Ship the vault — captured after the freeze, it covers every write the
	// guest made on this host. The destination applies it before restarting
	// the guest's activity.
	vb, err := d.vault.MarshalBinary()
	if err != nil {
		return rep, err
	}
	if err := cur.Send(transport.Message{Type: transport.MsgAnnounce, Payload: vb}); err != nil {
		return rep, fmt.Errorf("hostd: ship vault: %w", err)
	}

	// Finite dependency achieved: drop the domain, retain the frozen disk
	// as this machine's peer copy.
	m.mu.Lock()
	delete(m.domains, domainName)
	m.retained[domainName] = d.disk
	m.mu.Unlock()
	return rep, nil
}

// ServeOne accepts exactly one inbound migration on l and hosts the received
// domain afterwards, returning the destination-side result. When the
// announce names more than one stream, the sender's extra connections are
// accepted from l and bundled before the engine runs.
func (m *Machine) ServeOne(l net.Listener, cfg core.Config) (*core.DestResult, error) {
	conn, err := transport.Accept(l)
	if err != nil {
		return nil, err
	}
	defer func() { conn.Close() }()
	return m.receive(&conn, l, cfg)
}

// receive runs the destination side over *connp, upgrading it in place to a
// striped bundle when the announce asks for one (so the caller's deferred
// Close tears down every stream).
func (m *Machine) receive(connp *transport.Conn, l net.Listener, cfg core.Config) (*core.DestResult, error) {
	conn := *connp
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
	if ann.streams > 1 {
		// On failure AcceptExtraStreams already closed conn; the caller's
		// deferred second Close is harmless.
		striped, err := transport.AcceptExtraStreams(l, conn, ann.streams, nil)
		if err != nil {
			return nil, fmt.Errorf("hostd: %w", err)
		}
		conn, *connp = striped, striped
	}
	// The engine follows compression, dedup, delta and resume from the wire.
	// The dedup hint readies the machine index before the engine runs, so
	// the first advert already sees every retained and clone-sibling disk;
	// without it an advert is answered from a fresh per-migration index.
	if ann.dedup {
		cfg.DedupIndex = m.prepareDedup()
		cfg.DedupName = diskSourceName(ann.name)
	}
	// Swarm is announced permission, not obligation: the sender allows
	// sidecar fetches, and this receiver engages them only when its own
	// config names peer addresses (the cluster passes its nominations
	// there). An un-announced migration never opens sidecar sessions,
	// whatever the receiver's configuration says.
	if !ann.swarm {
		cfg.SwarmPeers = nil
	}
	// A resumable sender — its HELLO carries the token, the engine sees it —
	// reconnects to the same listener; the accept loop parks there until a
	// connection opens with the session's resume frame and hands it (and the
	// vault that follows the engine exchange) to the engine. cur tracks the
	// live link across rebinds — the engine may recover from either its
	// receive loop or a pull-send goroutine, so the holder is mutex-guarded.
	var curMu sync.Mutex
	cur := conn
	liveConn := func() transport.Conn {
		curMu.Lock()
		defer curMu.Unlock()
		return cur
	}
	// The caller's deferred Close must tear down the link the migration
	// ended on, not the one it started on.
	defer func() { *connp = liveConn() }()
	cfg.WaitReconnect = func(token transport.SessionToken, lastEpoch uint32) (transport.Conn, uint32, error) {
		c, epoch, err := transport.AcceptResume(l, token, lastEpoch, transport.DefaultResumeWait)
		if err != nil {
			return nil, 0, err
		}
		curMu.Lock()
		cur = c
		curMu.Unlock()
		return c, epoch, nil
	}

	m.mu.Lock()
	if _, exists := m.domains[ann.name]; exists {
		m.mu.Unlock()
		return nil, fmt.Errorf("hostd: domain %q already hosted on %s", ann.name, m.Name)
	}
	id := m.nextID
	m.nextID++
	// A returning domain resumes onto this machine's retained copy; a new
	// one gets a fresh zeroed VBD behind the machine's block cache.
	disk := m.retained[ann.name]
	returning := disk != nil && disk.NumBlocks() == ann.geom.NumBlocks
	if returning {
		delete(m.retained, ann.name)
	} else {
		disk = m.newVolumeLocked(blockdev.NewMemDisk(ann.geom.NumBlocks, blockdev.BlockSize))
	}
	m.mu.Unlock()

	d := &Domain{
		Name:     ann.name,
		disk:     disk,
		workKind: ann.kind,
		workSeed: int64(id) * 1000,
		hasWork:  ann.work,
	}
	shell := vm.New(ann.name, id, ann.geom.NumPages, 0)
	shell.Suspend()
	d.vmRef = shell
	d.backend = blkback.NewBackend(disk, id)
	d.router = core.NewRouter(d.backend.Submit)

	userResume := cfg.OnResume
	cfg.OnResume = func(g *blkback.PostCopyGate) {
		d.router.ResumeGate(g)
		if userResume != nil {
			userResume(g)
		}
	}
	untrack := m.trackMigration(ann.name, &cfg)
	defer untrack()
	// A failed inbound migration discards the domain (and its half-written
	// VBD, which the engine registered in the machine index); drop the
	// registration too, or the abandoned disk stays pinned in — and keeps
	// answering adverts from — the shared index.
	hosted := false
	if ann.dedup {
		defer func() {
			if !hosted {
				m.dropIndexedDisk(ann.name)
			}
		}()
	}
	res, err := core.MigrateDest(cfg, core.Host{VM: shell, Backend: d.backend}, conn)
	if err != nil {
		// Not resumed here, the copy is still the sender's base for us: every
		// block the attempt wrote is in the sender's divergence set.
		if returning && shell.State() != vm.Running {
			m.mu.Lock()
			m.retained[ann.name] = disk
			m.mu.Unlock()
		}
		return res, err
	}

	// The vault frame follows the engine's Done exchange, on whatever
	// connection the migration ended on.
	vf, err := liveConn().Recv()
	if err != nil {
		return res, fmt.Errorf("hostd: waiting for vault: %w", err)
	}
	if vf.Type != transport.MsgAnnounce {
		return res, fmt.Errorf("hostd: expected vault frame, got %v", vf.Type)
	}
	vault, err := core.UnmarshalVault(vf.Payload, d.backend.Device().NumBlocks())
	if err != nil {
		return res, err
	}
	// Bookkeeping order matters: the source now holds a copy frozen at the
	// freeze point (MarkSynced resets its set), and the post-copy fresh
	// writes happened after that point (RecordWrites re-diverges every
	// peer, including the source).
	vault.MarkSynced(ann.srcHost)
	vault.RecordWrites(res.Gate.FreshBitmap())
	d.vault = vault

	m.mu.Lock()
	m.domains[ann.name] = d
	m.mu.Unlock()
	if ann.dedup {
		hosted = true
		// The engine observed every received block; no rescan needed.
		m.noteIndexed(ann.name)
	}
	if d.hasWork {
		d.startWorkload()
	}
	return res, nil
}
