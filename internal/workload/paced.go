package workload

import (
	"sync"

	"bbmig/internal/transport"
)

// Paced drives a guest by transfer progress instead of wall clock. Wrapped
// around the migration source's connection, it calls Round once per Every
// units (blocks or pages) the source sends, on the sending goroutine, before
// the frame that crossed the mark goes out. That pins dirty rate ÷ transfer
// rate — the one parameter of the §IV iteration law — whatever the machine's
// speed that day, and makes a racing writer repeat exactly on the in-order
// send paths.
type Paced struct {
	transport.Conn
	Every int         // units of progress per round
	Round func(i int) // issue the guest's i-th round of writes

	mu      sync.Mutex
	units   int
	rounds  int
	stopped bool
}

// Send implements transport.Conn.
func (p *Paced) Send(m transport.Message) error {
	if _, n := transport.CarriedUnits(m); n > 0 {
		p.mu.Lock()
		p.units += n
		for !p.stopped && p.rounds < p.units/p.Every {
			p.Round(p.rounds)
			p.rounds++
		}
		p.mu.Unlock()
	}
	return p.Conn.Send(m)
}

// Stop ends the guest's writes; it returns once no round is in flight. The
// source's OnFreeze hook calls it before quiescing the guest's I/O path: a
// round issued later would block on the frozen path from the migration's
// own goroutine.
func (p *Paced) Stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
}
