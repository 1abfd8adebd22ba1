package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase names of the migration pipeline. Every scheme — TPM, IM, and the
// comparison baselines — is a composition of these named phases; the engine
// announces each transition on the event stream, so an observer can follow
// any scheme with one vocabulary.
const (
	PhaseHandshake    = "handshake"
	PhaseDiskPreCopy  = "disk-precopy"
	PhaseMemPreCopy   = "mem-precopy"
	PhaseFreezeCopy   = "freeze-and-copy"
	PhasePostCopy     = "post-copy"
	PhaseOnDemand     = "on-demand-serve" // on-demand baseline: pull service after resume
	PhaseDeltaForward = "delta-forward"   // delta baseline: full-disk pass with write forwarding
	PhaseDeltaReplay  = "delta-replay"    // delta baseline: destination replays the queue
)

// EventKind identifies a progress event.
type EventKind uint8

// Progress event kinds emitted by both migration endpoints.
const (
	// EventPhaseStart marks entry into Event.Phase.
	EventPhaseStart EventKind = iota + 1
	// EventPhaseEnd marks completion of Event.Phase.
	EventPhaseEnd
	// EventIterationEnd closes one pre-copy iteration; Iteration, Units,
	// Skipped, Bytes, and Dirty carry the iteration's outcome.
	EventIterationEnd
	// EventBytesTransferred reports cumulative wire bytes moved by this
	// endpoint (Bytes). Emitted at most once per progressByteQuantum of
	// traffic, so consumers see a steady heartbeat without per-frame cost.
	EventBytesTransferred
	// EventSuspended marks the VM freeze (source: the suspend itself;
	// destination: the SUSPEND frame's arrival).
	EventSuspended
	// EventResumed marks the VM running on the destination (source: the
	// RESUMED notification; destination: the resume itself).
	EventResumed
	// EventPullServed reports one post-copy pull request served
	// preferentially by the source; Units is the block number.
	EventPullServed
	// EventCompleted is the final event of a successful migration.
	EventCompleted
	// EventFailed is the final event of a failed migration; Err carries the
	// cause.
	EventFailed
	// EventReconnected marks a resumable migration surviving a connection
	// failure: the session was re-established and the interrupted phase
	// re-entered. Iteration carries the new session epoch.
	EventReconnected
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventPhaseStart:
		return "phase-start"
	case EventPhaseEnd:
		return "phase-end"
	case EventIterationEnd:
		return "iteration-end"
	case EventBytesTransferred:
		return "bytes-transferred"
	case EventSuspended:
		return "suspended"
	case EventResumed:
		return "resumed"
	case EventPullServed:
		return "pull-served"
	case EventCompleted:
		return "completed"
	case EventFailed:
		return "failed"
	case EventReconnected:
		return "reconnected"
	}
	return "event(?)"
}

// Event is one typed progress notification from a migration endpoint.
type Event struct {
	Kind   EventKind
	Scheme string        // TPM, IM, freeze-and-copy, on-demand, delta-forward
	Side   string        // "source" or "dest"
	Phase  string        // current pipeline phase (Phase* constants)
	At     time.Duration // since the endpoint's run started

	Iteration int   // EventIterationEnd: 1-based iteration index
	Units     int   // iteration units (blocks/pages) sent, or pulled block number
	Skipped   int   // EventIterationEnd: units left out as already dirty again
	Bytes     int64 // iteration wire bytes, or cumulative endpoint bytes
	Dirty     int   // EventIterationEnd: dirty units at iteration end

	Err string // EventFailed: the failure cause
}

// EventFunc consumes progress events. The engine may invoke it from several
// goroutines concurrently (worker pools report bytes as they send); handlers
// must be safe for concurrent use and must not block — a slow handler stalls
// the transfer path it is observing.
type EventFunc func(Event)

// progressByteQuantum throttles EventBytesTransferred: one event per this
// many wire bytes.
const progressByteQuantum = 1 << 20

// emitter fans engine progress out to an EventFunc. A nil function makes
// every emit a cheap no-op, so the pipeline code emits unconditionally.
type emitter struct {
	fn     EventFunc
	origin time.Time // Event.At counts from here
	scheme string
	side   string

	phaseMu sync.Mutex
	phase   string

	bytes     atomic.Int64 // cumulative wire bytes
	lastEmit  atomic.Int64 // bytes value at the last BytesTransferred event
	completed atomic.Bool
}

func newEmitter(fn EventFunc, origin time.Time, scheme, side string) *emitter {
	return &emitter{fn: fn, origin: origin, scheme: scheme, side: side}
}

func (e *emitter) currentPhase() string {
	e.phaseMu.Lock()
	defer e.phaseMu.Unlock()
	return e.phase
}

func (e *emitter) emit(ev Event) {
	if e.fn == nil {
		return
	}
	ev.Scheme, ev.Side = e.scheme, e.side
	if ev.Phase == "" {
		ev.Phase = e.currentPhase()
	}
	ev.At = time.Since(e.origin)
	e.fn(ev)
}

// phaseStart records and announces entry into a named phase.
func (e *emitter) phaseStart(name string) {
	e.phaseMu.Lock()
	e.phase = name
	e.phaseMu.Unlock()
	e.emit(Event{Kind: EventPhaseStart, Phase: name})
}

func (e *emitter) phaseEnd(name string) {
	e.emit(Event{Kind: EventPhaseEnd, Phase: name})
}

// noteBytes records the endpoint's cumulative wire-byte total (as measured
// by the transport meter, so compression savings are reflected) and emits a
// throttled progress heartbeat. Safe for concurrent use from send/receive
// workers; the total is monotonic.
func (e *emitter) noteBytes(total int64) {
	for {
		cur := e.bytes.Load()
		if total <= cur || e.bytes.CompareAndSwap(cur, total) {
			break
		}
	}
	if e.fn == nil {
		return
	}
	last := e.lastEmit.Load()
	if total-last < progressByteQuantum {
		return
	}
	if !e.lastEmit.CompareAndSwap(last, total) {
		return // another worker just emitted for this quantum
	}
	e.emit(Event{Kind: EventBytesTransferred, Bytes: total})
}

func (e *emitter) iterationEnd(st IterationStat) {
	e.emit(Event{
		Kind: EventIterationEnd, Phase: st.Phase,
		Iteration: st.Iteration, Units: st.Sent, Skipped: st.Skipped, Bytes: st.SentBytes, Dirty: int(st.Dirty),
	})
}

func (e *emitter) suspended() { e.emit(Event{Kind: EventSuspended}) }
func (e *emitter) resumed()   { e.emit(Event{Kind: EventResumed}) }

func (e *emitter) pullServed(block int) {
	e.emit(Event{Kind: EventPullServed, Units: block})
}

func (e *emitter) reconnected(epoch int) {
	e.emit(Event{Kind: EventReconnected, Iteration: epoch})
}

// finish emits the terminal event exactly once.
func (e *emitter) finish(err error) {
	if !e.completed.CompareAndSwap(false, true) {
		return
	}
	if err != nil {
		e.emit(Event{Kind: EventFailed, Err: err.Error(), Bytes: e.bytes.Load()})
		return
	}
	e.emit(Event{Kind: EventCompleted, Bytes: e.bytes.Load()})
}

// Progress is a point-in-time snapshot of one migration endpoint, maintained
// by a ProgressTracker consuming the event stream.
type Progress struct {
	Scheme string
	Side   string
	Phase  string

	Iteration        int   // most recently completed pre-copy iteration
	BytesTransferred int64 // cumulative wire bytes at the last heartbeat
	PullsServed      int   // post-copy pulls served (source side)
	Reconnects       int   // resumable-session reconnects survived
	Suspended        bool  // freeze seen
	Resumed          bool  // destination VM running

	Done bool   // terminal event seen
	Err  string // non-empty if the migration failed
}

// ProgressTracker folds an event stream into a queryable snapshot. Wire its
// Handle method into Config.OnEvent (directly or chained) and call Snapshot
// from any goroutine — this is how hostd answers live-status queries for
// in-flight migrations.
type ProgressTracker struct {
	mu sync.Mutex
	p  Progress
}

// NewProgressTracker returns an empty tracker.
func NewProgressTracker() *ProgressTracker { return &ProgressTracker{} }

// Handle implements EventFunc.
func (t *ProgressTracker) Handle(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.p.Scheme, t.p.Side = ev.Scheme, ev.Side
	if ev.Phase != "" {
		t.p.Phase = ev.Phase
	}
	switch ev.Kind {
	case EventIterationEnd:
		t.p.Iteration = ev.Iteration
	case EventBytesTransferred:
		t.p.BytesTransferred = ev.Bytes
	case EventSuspended:
		t.p.Suspended = true
	case EventResumed:
		t.p.Resumed = true
	case EventPullServed:
		t.p.PullsServed++
	case EventReconnected:
		t.p.Reconnects++
	case EventCompleted:
		t.p.Done = true
		t.p.BytesTransferred = ev.Bytes
	case EventFailed:
		t.p.Done, t.p.Err = true, ev.Err
		if ev.Bytes > t.p.BytesTransferred {
			t.p.BytesTransferred = ev.Bytes
		}
	}
}

// Snapshot returns the current progress.
func (t *ProgressTracker) Snapshot() Progress {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.p
}

// ChainEvents composes event handlers: each non-nil handler sees every event.
// Useful to attach a ProgressTracker without displacing a user's Config.OnEvent.
func ChainEvents(fns ...EventFunc) EventFunc {
	live := make([]EventFunc, 0, len(fns))
	for _, fn := range fns {
		if fn != nil {
			live = append(live, fn)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(ev Event) {
		for _, fn := range live {
			fn(ev)
		}
	}
}
