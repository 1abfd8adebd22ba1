package cluster

import (
	"sort"

	"bbmig/internal/hostd"
)

// Swarm orchestration: when Options.Swarm is on and a job's config runs
// content dedup, the scheduler nominates peer machines whose indexes
// plausibly hold the moving domain's content, starts one sidecar
// swarm-serve session per nominee (hostd.ServeSwarm, paced from the shared
// budget), and puts the session addresses in both endpoints' SwarmPeers. The
// migration channel is untouched; tearing the sessions down just reverts
// the migration to single-source dedup.

// swarmNominee ranks one candidate peer.
type swarmNominee struct {
	machine *hostd.Machine
	name    string
	overlap float64
	content int
}

// nominateSwarmPeers picks up to max peer machines for a migration of
// domain from src to dst, best content first. The ranking reuses
// placement's content-overlap signal — a retained copy of the very domain
// is the strongest evidence a member's index can answer its adverts — and
// falls back to how much content the member's index covers at all (hosted
// plus retained disks), which is what serves clone siblings' template
// blocks. Members holding nothing, the endpoints themselves, and draining
// members are never nominated.
func (c *Cluster) nominateSwarmPeers(domain, src, dst string, max int) []swarmNominee {
	c.mu.Lock()
	defer c.mu.Unlock()
	var nominees []swarmNominee
	for _, m := range c.members {
		if m.name == src || m.name == dst || m.draining {
			continue
		}
		content := m.load.Domains + m.load.RetainedDisks
		if content == 0 {
			continue // an empty index answers only misses; don't bother dialing
		}
		nominees = append(nominees, swarmNominee{
			machine: m.machine,
			name:    m.name,
			overlap: contentOverlap(m, domain),
			content: content,
		})
	}
	sort.Slice(nominees, func(i, j int) bool {
		if nominees[i].overlap != nominees[j].overlap {
			return nominees[i].overlap > nominees[j].overlap
		}
		if nominees[i].content != nominees[j].content {
			return nominees[i].content > nominees[j].content
		}
		return nominees[i].name < nominees[j].name
	})
	if len(nominees) > max {
		nominees = nominees[:max]
	}
	return nominees
}

// startSwarmPeers nominates peers for t's migration and starts one sidecar
// serve session per nominee, returning the session addresses and a cleanup
// that closes every listener (unblocking acceptors whose destination never
// dialed; accepted sessions end when the destination closes its sidecar).
// Peer serving draws shares from the cluster budget, so swarm uplinks and
// ordinary migrations dilute each other honestly. Returns no addresses when
// nothing is worth nominating — the migration then runs single-source.
func (c *Cluster) startSwarmPeers(t *Ticket) ([]string, func()) {
	nominees := c.nominateSwarmPeers(t.job.Domain, t.job.From, t.Target(), c.opts.SwarmPeers)
	var addrs []string
	var closers []func()
	for _, n := range nominees {
		l, err := c.opts.listen()
		if err != nil {
			continue
		}
		machine := n.machine
		go func() { _ = machine.ServeSwarm(l, c.budget) }()
		addrs = append(addrs, l.Addr().String())
		closers = append(closers, func() { l.Close() })
	}
	cleanup := func() {
		for _, cl := range closers {
			cl()
		}
	}
	return addrs, cleanup
}
