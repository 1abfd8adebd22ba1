package cluster

import "fmt"

// Placement scoring weights. A candidate's score is
//
//	capacityWeight · headroom/capacity  −  loadPenalty · migrations
//	  +  linkWeight · link/bestLink  +  overlapWeight · contentOverlap
//
// so free capacity dominates, each in-flight migration on the host costs a
// quarter of a fully free host, link bandwidth breaks near-ties toward the
// fastest pipe, and — when the moving domain is known — a host that retains
// that domain's disk earns a content-overlap bonus: the migration there is
// both positionally incremental (the vault seeds it) and content-addressed
// (the fingerprint index answers adverts from the retained copy), so it
// ships a fraction of the bytes a cold host would cost. Ties resolve to the
// lexicographically first name, so placement is deterministic for tests and
// reproducible sweeps.
const (
	capacityWeight = 1.0
	loadPenalty    = 0.25
	linkWeight     = 0.1
	overlapWeight  = 0.3
)

// PlaceDomain picks the best destination for migrating domain off `from`,
// consulting each member's last-heartbeat load plus the scheduler's live
// reservations; candidates that retain the domain's disk collect the
// content-overlap bonus, and an empty domain names none. Hosts that are the
// source, excluded, draining, stale, at their concurrency cap, or out of
// domain capacity are not candidates; with no candidate left an error is
// returned (a queued job retries placement at every dispatch).
func (c *Cluster) PlaceDomain(domain, from string, exclude ...string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ex := make(map[string]bool, len(exclude))
	for _, n := range exclude {
		ex[n] = true
	}
	m, err := c.placeLocked(domain, from, ex)
	if err != nil {
		return "", err
	}
	return m.name, nil
}

// placeLocked implements PlaceDomain under c.mu.
func (c *Cluster) placeLocked(domain, from string, exclude map[string]bool) (*member, error) {
	candidates := make([]*member, 0, len(c.members))
	bestLink := 0.0
	for _, m := range c.members {
		if m.name == from || exclude[m.name] || m.draining || !c.aliveLocked(m) {
			continue
		}
		if m.runningIn+m.runningOut >= c.opts.MaxPerHost {
			continue
		}
		// Reserve headroom for migrations already inbound, so a burst of
		// placements spreads instead of stacking on one host.
		if headroom := m.capacity - m.load.Domains - m.runningIn; headroom <= 0 {
			continue
		}
		candidates = append(candidates, m)
		if m.linkBps > bestLink {
			bestLink = m.linkBps
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("cluster: no eligible destination for a domain on %q", from)
	}
	var best *member
	bestScore := 0.0
	for _, m := range candidates {
		headroom := m.capacity - m.load.Domains - m.runningIn
		migs := m.runningIn + m.runningOut
		if hb := m.load.ActiveMigrations; hb > migs {
			migs = hb // out-of-band migrations the scheduler didn't start
		}
		score := capacityWeight * float64(headroom) / float64(m.capacity)
		score -= loadPenalty * float64(migs)
		if bestLink > 0 {
			score += linkWeight * m.linkBps / bestLink
		}
		score += overlapWeight * contentOverlap(m, domain)
		if best == nil || score > bestScore || (score == bestScore && m.name < best.name) {
			best, bestScore = m, score
		}
	}
	return best, nil
}

// contentOverlap estimates how much of the moving domain's content a
// candidate already holds, in [0, 1]. A retained copy of the very domain is
// the strongest signal the heartbeat carries (hostd.Load.Retained): the
// vault makes the move incremental and the fingerprint index answers its
// adverts from the retained disk.
func contentOverlap(m *member, domain string) float64 {
	if domain == "" {
		return 0
	}
	for _, name := range m.load.Retained {
		if name == domain {
			return 1
		}
	}
	return 0
}
