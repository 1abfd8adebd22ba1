package core

import (
	"sync"

	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
)

// Router is the guest's I/O path across a migration: it forwards requests to
// the current submitter (source backend before the freeze, destination
// post-copy gate after the resume) and blocks the guest during the freeze
// window — which is precisely the downtime the paper measures.
//
// Wire it up as:
//
//	r := core.NewRouter(srcBackend.Submit)
//	cfg.OnFreeze = r.Freeze
//	cfg.OnResume = func(g *blkback.PostCopyGate) { r.ResumeAt(g.Submit) }
//
// and drive the workload through r.Submit.
type Router struct {
	mu       sync.Mutex
	cond     *sync.Cond
	submit   func(blockdev.Request) error
	frozen   bool
	inflight sync.WaitGroup
}

// NewRouter returns a Router initially routing to submit.
func NewRouter(submit func(blockdev.Request) error) *Router {
	r := &Router{submit: submit}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Submit routes one request, blocking while the VM is frozen.
func (r *Router) Submit(req blockdev.Request) error {
	r.mu.Lock()
	for r.frozen {
		r.cond.Wait()
	}
	fn := r.submit
	r.inflight.Add(1)
	r.mu.Unlock()
	defer r.inflight.Done()
	return fn(req)
}

// Freeze stops admitting requests and waits for in-flight ones to drain,
// quiescing the guest's I/O so the engine can capture a stable final state.
func (r *Router) Freeze() {
	r.mu.Lock()
	r.frozen = true
	r.mu.Unlock()
	r.inflight.Wait()
}

// ResumeAt switches the route to submit (typically the destination gate) and
// unfreezes the guest.
func (r *Router) ResumeAt(submit func(blockdev.Request) error) {
	r.mu.Lock()
	r.submit = submit
	r.frozen = false
	r.mu.Unlock()
	r.cond.Broadcast()
}

// ResumeGate is shorthand for ResumeAt(g.Submit), matching Config.OnResume's
// signature.
func (r *Router) ResumeGate(g *blkback.PostCopyGate) { r.ResumeAt(g.Submit) }
