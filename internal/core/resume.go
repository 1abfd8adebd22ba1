package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"bbmig/internal/bitmap"
	"bbmig/internal/transport"
)

// This file holds the engine half of resumable migration: the per-migration
// session state, the destination progress record exchanged in MsgSessionAck,
// and the destination-side connection recovery (the source side's active
// retry driver lives in source.go).

// resumeAckTimeout bounds how long a reconnecting source waits for the
// destination's session ack before declaring the attempt dead and retrying.
const resumeAckTimeout = 30 * time.Second

// session tracks one migration's resume identity across reconnects.
type session struct {
	token   transport.SessionToken
	offered bool // source minted / destination received a token

	mu        sync.Mutex
	resumable bool   // both endpoints agreed in the handshake
	epoch     uint32 // last completed resume epoch (0 = original connection)
	gen       uint64 // bumped per successful rebind; single-flights recovery
}

func (s *session) generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

func (s *session) isResumable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resumable
}

func (s *session) setResumable(v bool) {
	s.mu.Lock()
	s.resumable = v
	s.mu.Unlock()
}

// destProgress is the destination's pipeline position: how many pre-copy
// iterations it has fully received per phase, which milestones it has
// passed, and — the transfer cursor — the exact units received so far in
// the in-flight iteration. The reconnect ack carries it so the source
// re-enters the pipeline exactly where the destination's knowledge ends:
// the blocks still owed are the interrupted iteration's set minus what the
// destination confirms, so a fault deep into a 40 GB first iteration costs
// only the frames in flight, not the gigabytes already landed.
type destProgress struct {
	diskIters uint32 // disk ITER_END frames seen (fully received iterations)
	memIters  uint32 // memory ITER_END frames seen
	flags     uint8

	recvDiskNum uint32         // iteration the received-blocks set belongs to
	recvDisk    *bitmap.Bitmap // blocks received in that iteration (nil if none)
	recvMemNum  uint32         // iteration the received-pages set belongs to
	recvMem     *bitmap.Bitmap // pages received in that iteration (nil if none)
}

// destProgress flag bits: the milestones a reconnecting source acts on.
// Bits 0, 1 and 3 are unused.
const (
	destResumed = 1 << 2 // destination VM is running (post-copy reached)
	destSynced  = 1 << 4 // every block consistent; DONE sent or imminent
)

// marshal encodes the progress record for the MsgSessionAck payload:
// flags(1) diskIters(4) memIters(4), then two length-prefixed cursor
// sections (iteration number + marshalled bitmap; length 0 = absent).
func (p destProgress) marshal() ([]byte, error) {
	out := make([]byte, 9)
	out[0] = p.flags
	binary.LittleEndian.PutUint32(out[1:], p.diskIters)
	binary.LittleEndian.PutUint32(out[5:], p.memIters)
	for _, sec := range []struct {
		num uint32
		bm  *bitmap.Bitmap
	}{{p.recvDiskNum, p.recvDisk}, {p.recvMemNum, p.recvMem}} {
		var body []byte
		if sec.bm != nil {
			var err error
			if body, err = sec.bm.MarshalBinary(); err != nil {
				return nil, err
			}
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:], sec.num)
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(body)))
		out = append(out, hdr[:]...)
		out = append(out, body...)
	}
	return out, nil
}

// parseDestProgress decodes a MsgSessionAck payload. The cursors must be
// exactly the source's own disk and memory sizes: owedUnits subtracts them
// from iteration bitmaps of those sizes.
func parseDestProgress(data []byte, diskBlocks, memPages int) (destProgress, error) {
	var p destProgress
	if len(data) < 9 {
		return p, fmt.Errorf("core: session ack payload %d bytes, want >= 9", len(data))
	}
	p.flags = data[0]
	p.diskIters = binary.LittleEndian.Uint32(data[1:])
	p.memIters = binary.LittleEndian.Uint32(data[5:])
	rest := data[9:]
	for i, units := range []int{diskBlocks, memPages} {
		if len(rest) < 8 {
			return p, fmt.Errorf("core: session ack cursor section truncated")
		}
		num := binary.LittleEndian.Uint32(rest[0:])
		n := int(binary.LittleEndian.Uint32(rest[4:]))
		rest = rest[8:]
		if len(rest) < n {
			return p, fmt.Errorf("core: session ack cursor bitmap truncated")
		}
		var bm *bitmap.Bitmap
		if n > 0 {
			var err error
			if bm, err = bitmap.UnmarshalSized(rest[:n], units); err != nil {
				return p, fmt.Errorf("core: session ack cursor: %w", err)
			}
		}
		rest = rest[n:]
		if i == 0 {
			p.recvDiskNum, p.recvDisk = num, bm
		} else {
			p.recvMemNum, p.recvMem = num, bm
		}
	}
	if len(rest) != 0 {
		return p, fmt.Errorf("core: session ack payload has %d trailing bytes", len(rest))
	}
	return p, nil
}

// iterResume describes re-entry into an iterative pre-copy phase: restart at
// iteration iter, re-sending pending (the interrupted iteration's set).
type iterResume struct {
	iter    int
	pending *bitmap.Bitmap
}

// destRecoverable reports whether the destination side can recover from err
// by waiting for the source to reconnect.
func (t *transfer) destRecoverable(err error) bool {
	return t.cfg.WaitReconnect != nil && t.destState != nil &&
		t.sess.isResumable() && transport.IsConnError(err)
}

// destRecv receives one frame, transparently riding out connection failures
// when the session is resumable: the engine parks until the source
// reconnects, acks with the destination's progress record, rebinds the
// decorator stack, and retries.
func (t *transfer) destRecv() (transport.Message, error) {
	for {
		gen := t.sess.generation()
		m, err := t.conn.Recv()
		if err == nil {
			return m, nil
		}
		if rerr := t.recoverDest(gen, err); rerr != nil {
			return m, rerr
		}
	}
}

// destSend sends one frame with the same recovery discipline as destRecv.
// Safe concurrently with destRecv: recovery is single-flighted on the
// session generation, so whichever goroutine notices the dead link first
// performs the rebind and the other simply retries on the fresh connection.
func (t *transfer) destSend(m transport.Message) error {
	for {
		gen := t.sess.generation()
		err := t.conn.Send(m)
		if err == nil {
			return nil
		}
		if rerr := t.recoverDest(gen, err); rerr != nil {
			return rerr
		}
	}
}

// destReply sends the reply to a source request once: a reply whose link
// dies answers a request of a dead epoch, whose replies the source drops, and
// the re-entered phase asks again for what it still needs.
func (t *transfer) destReply(m transport.Message) error {
	gen := t.sess.generation()
	if err := t.conn.Send(m); err != nil {
		return t.recoverDest(gen, err)
	}
	return nil
}

// recoverDest waits for the source to reconnect and rebinds the stack. A nil
// return means the session was rebound (by this call or a concurrent one)
// and the failed operation should be retried; otherwise the original error
// stands.
func (t *transfer) recoverDest(gen uint64, cause error) error {
	if !t.destRecoverable(cause) {
		return cause
	}
	t.sess.mu.Lock()
	defer t.sess.mu.Unlock()
	if t.sess.gen != gen {
		return nil // a concurrent operation already recovered this failure
	}
	for {
		conn, epoch, err := t.cfg.WaitReconnect(t.sess.token, t.sess.epoch)
		if err != nil {
			return cause
		}
		payload, merr := t.destState().marshal()
		if merr != nil {
			conn.Close()
			return merr
		}
		ack := transport.Message{Type: transport.MsgSessionAck, Arg: uint64(epoch), Payload: payload}
		if err := conn.Send(ack); err != nil {
			conn.Close()
			continue // that reconnect died immediately; wait for the next
		}
		t.swap.Rebind(conn)
		t.sess.epoch = epoch
		t.sess.gen++
		t.ev.reconnected(int(epoch))
		return nil
	}
}
