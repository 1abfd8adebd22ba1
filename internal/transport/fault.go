package transport

import (
	"errors"
	"sync"
)

// ErrInjected is the failure a FaultConn injects.
var ErrInjected = errors.New("transport: injected fault")

// FaultKind selects how a scripted fault manifests, at message granularity
// (our Conns exchange whole frames; a byte-level cut shows up to the framing
// layer as one of these shapes).
type FaultKind int

const (
	// FaultCut severs the link: the triggering operation's frame is lost in
	// flight (never delivered), the operation returns ErrInjected, and both
	// directions die — drop-after-N-frames. This is the classic mid-transfer
	// link failure, and what a TCP reset mid-frame looks like above the
	// framing layer.
	FaultCut FaultKind = iota
	// FaultHalfClose kills only the triggering direction — a one-sided
	// close. Armed via AfterSends, every Send fails while Recv keeps
	// delivering; armed via AfterRecvs, every Recv fails while Send keeps
	// working. The surviving direction stays up until the peer tears down.
	FaultHalfClose
	// FaultTruncate delivers the triggering frame with its payload cut to
	// half length, then severs the link: on a send trigger the peer
	// receives the corrupt frame (e.g. an extent whose payload no longer
	// matches its block count); on a recv trigger this side reads it — a
	// frame cut mid-extent.
	FaultTruncate
)

// Fault is one scripted failure: it arms after AfterSends successful sends
// or AfterRecvs successful receives (whichever trigger is non-zero; a fault
// may arm both) and fires on the next operation of that kind.
type Fault struct {
	AfterSends int64
	AfterRecvs int64
	Kind       FaultKind
}

// FaultConn wraps a Conn with a deterministic fault script, for testing the
// engine's behaviour when the network dies mid-migration (the failure mode
// behind the paper's availability argument: a migration must either complete,
// resume, or leave both sides able to report a clean error).
//
// Faults are evaluated in script order on every operation; the first fault
// whose trigger has been crossed fires, is consumed, and applies its kind's
// state (send-dead, both-dead). The ordering is deterministic: counters are
// per-direction, checks happen before the operation is delegated, and ties
// between two armed faults resolve to the earlier script entry.
type FaultConn struct {
	inner Conn

	mu       sync.Mutex
	script   []Fault
	sends    int64
	recvs    int64
	sendDead bool
	recvDead bool
	dead     bool
}

// NewFaultConn wraps inner, cutting the link on the send after failSends
// successful sends and on the recv after failRecvs successful recvs (0
// disables either trigger). Kept as the one-shot convenience constructor;
// NewScriptedFaultConn runs richer scripts.
func NewFaultConn(inner Conn, failSends, failRecvs int64) *FaultConn {
	var script []Fault
	if failSends > 0 {
		script = append(script, Fault{AfterSends: failSends, Kind: FaultCut})
	}
	if failRecvs > 0 {
		script = append(script, Fault{AfterRecvs: failRecvs, Kind: FaultCut})
	}
	return NewScriptedFaultConn(inner, script...)
}

// NewScriptedFaultConn wraps inner with an ordered fault script.
func NewScriptedFaultConn(inner Conn, script ...Fault) *FaultConn {
	return &FaultConn{inner: inner, script: append([]Fault(nil), script...)}
}

// fire consumes script index i and applies its state; onSend names the
// direction that tripped it (a half-close kills only that direction).
func (f *FaultConn) fire(i int, onSend bool) FaultKind {
	k := f.script[i].Kind
	f.script = append(f.script[:i:i], f.script[i+1:]...)
	switch k {
	case FaultHalfClose:
		if onSend {
			f.sendDead = true
		} else {
			f.recvDead = true
		}
	default:
		f.dead = true
	}
	return k
}

// nextSendFault reports the first armed send fault, or -1.
func (f *FaultConn) nextSendFault() int {
	for i, ft := range f.script {
		if ft.AfterSends > 0 && f.sends >= ft.AfterSends {
			return i
		}
	}
	return -1
}

// Send implements Conn.
func (f *FaultConn) Send(m Message) error {
	f.mu.Lock()
	if f.dead || f.sendDead {
		f.mu.Unlock()
		return ErrInjected
	}
	i := f.nextSendFault()
	if i < 0 {
		f.sends++
		f.mu.Unlock()
		return f.inner.Send(m)
	}
	kind := f.fire(i, true)
	f.mu.Unlock()
	switch kind {
	case FaultHalfClose:
		return ErrInjected
	case FaultTruncate:
		m.Payload = m.Payload[:len(m.Payload)/2]
		_ = f.inner.Send(m) // best-effort: the mangled frame races the close
		_ = Flush(f.inner)
		f.inner.Close()
		return ErrInjected
	default: // FaultCut: the frame is lost in flight
		f.inner.Close()
		return ErrInjected
	}
}

// Recv implements Conn.
func (f *FaultConn) Recv() (Message, error) {
	f.mu.Lock()
	if f.dead || f.recvDead {
		f.mu.Unlock()
		return Message{}, ErrInjected
	}
	for i, ft := range f.script {
		if ft.AfterRecvs > 0 && f.recvs >= ft.AfterRecvs {
			kind := f.fire(i, false)
			f.mu.Unlock()
			switch kind {
			case FaultHalfClose:
				return Message{}, ErrInjected // sends stay up
			case FaultTruncate:
				m, err := f.inner.Recv()
				f.inner.Close()
				if err != nil {
					return Message{}, ErrInjected
				}
				m.Payload = m.Payload[:len(m.Payload)/2]
				return m, nil
			default: // FaultCut
				f.inner.Close()
				return Message{}, ErrInjected
			}
		}
	}
	f.recvs++
	f.mu.Unlock()
	return f.inner.Recv()
}

// Close implements Conn. What the inner conn staged is lost with it.
func (f *FaultConn) Close() error { return f.inner.Close() }

// Stage implements Stager.
func (f *FaultConn) Stage(limit int) bool { return Stage(f.inner, limit) }

// Flush implements Stager: a dead send direction writes nothing.
func (f *FaultConn) Flush() error {
	f.mu.Lock()
	dead := f.dead || f.sendDead
	f.mu.Unlock()
	if dead {
		return ErrInjected
	}
	return Flush(f.inner)
}

// Injector hands out fault scripts across the successive connections of a
// resumable migration: epoch 0 (the original connection) gets the first
// script, each reconnect the next, and epochs past the end run clean. Tests
// use it to script "fail mid mem-precopy, then fail again during post-copy,
// then let the third attempt finish".
type Injector struct {
	mu      sync.Mutex
	scripts [][]Fault
	next    int
}

// NewInjector builds an injector over per-epoch scripts.
func NewInjector(scripts ...[]Fault) *Injector {
	return &Injector{scripts: scripts}
}

// Wrap decorates the next epoch's connection with its script. Connections
// beyond the scripted epochs are returned unwrapped.
func (in *Injector) Wrap(c Conn) Conn {
	in.mu.Lock()
	defer in.mu.Unlock()
	idx := in.next
	in.next++
	if idx >= len(in.scripts) || len(in.scripts[idx]) == 0 {
		return c
	}
	return NewScriptedFaultConn(c, in.scripts[idx]...)
}

// Epochs reports how many connections the injector has wrapped so far.
func (in *Injector) Epochs() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.next
}
