package core

import (
	"sync"

	"bbmig/internal/bitmap"
	"bbmig/internal/transport"
)

// job is one unit of lane work: an extent (or, for a page frame, the page
// number as a one-unit extent), the pooled buffer holding its bytes, and what
// to do with them. run is bound once per send pass or handler group, so
// building a job allocates nothing.
//
// Ownership: a job handed to lanePool.do has given its buffer away. Whether
// the pool runs the job, refuses or skips it because an earlier one failed,
// or the job itself fails, the pool returns data to the buffer pool exactly
// once, after run (if it ran) has returned; run only borrows data, unless
// the job takes, when a run that runs takes data over. A frame that fails
// validation before it becomes a job is released by whoever rejected it. A
// job whose run reads its own bytes carries no data.
type job struct {
	ext   bitmap.Extent
	data  []byte
	run   func(ext bitmap.Extent, data []byte) error
	takes bool
}

// lanePool runs jobs on a fixed set of worker lanes: the stages of the
// source's extent walker, and the destination's appliers behind the receive
// loop. The feeding side hands each job to the pool; drain is the barrier —
// the end of a send pass, or a control frame — after which every job handed
// in before it has finished. That preserves the single-stream semantics:
// between two barriers each block or page appears once, so concurrent jobs
// never conflict, and rewrites across barriers are ordered by the drain. One
// lane runs its jobs in the order they were handed in.
//
// A nil pool runs every job inline, byte-for-byte the seed's sequential
// behavior (errors surface immediately rather than at the next drain).
type lanePool struct {
	jobs chan job

	mu      sync.Mutex
	cond    sync.Cond
	pending int
	err     error // first job error, sticky
	wg      sync.WaitGroup
}

// queuedPerLane sizes the default queue: two waiting jobs per lane keep every
// lane fed while the feeding side blocks in a device read or a Recv.
const queuedPerLane = 2

// newLanePool starts lanes workers behind a queue of the given depth; depth 0
// is the default queue, under which lanes <= 1 returns the nil, inline pool.
func newLanePool(lanes, depth int) *lanePool {
	if depth == 0 {
		if lanes <= 1 {
			return nil
		}
		depth = lanes * queuedPerLane
	}
	p := &lanePool{jobs: make(chan job, depth)}
	p.cond.L = &p.mu
	for w := 0; w < max(lanes, 1); w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for j := range p.jobs {
				p.mu.Lock()
				err := p.err
				p.mu.Unlock()
				ran := err == nil // a job queued behind a failure is skipped
				if ran {
					err = j.run(j.ext, j.data)
				}
				if !ran || !j.takes {
					transport.PutBuf(j.data)
				}
				p.mu.Lock()
				if p.err == nil {
					p.err = err
				}
				p.pending--
				if p.pending == 0 {
					p.cond.Broadcast()
				}
				p.mu.Unlock()
			}
		}()
	}
	return p
}

// do runs j, inline or on a lane, and releases its buffer (the rule on job).
// With lanes, a past job's error is returned eagerly, without running j, so
// the feeding side aborts instead of queueing onto a failed device or link.
func (p *lanePool) do(j job) error {
	if p == nil {
		err := j.run(j.ext, j.data)
		if !j.takes {
			transport.PutBuf(j.data)
		}
		return err
	}
	p.mu.Lock()
	if err := p.err; err != nil {
		p.mu.Unlock()
		transport.PutBuf(j.data)
		return err
	}
	p.pending++
	p.mu.Unlock()
	p.jobs <- j
	return nil
}

// drain blocks until every queued job has finished and returns the first
// job error, if any.
func (p *lanePool) drain() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.pending > 0 {
		p.cond.Wait()
	}
	return p.err
}

// close finishes the queued jobs and stops the lanes. Call once, after the
// last do.
func (p *lanePool) close() {
	if p == nil {
		return
	}
	close(p.jobs)
	p.wg.Wait()
}
