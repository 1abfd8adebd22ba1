package core

import (
	"errors"
	"strings"
	"testing"

	"bbmig/internal/blkback"
	"bbmig/internal/blockdev"
	"bbmig/internal/transport"
)

// pullInjector delivers one forged PULL_REQUEST to the source just ahead of
// the destination's RESUMED, so the request is queued before post-copy looks
// at the queue. Only the source's reader goroutine calls Recv by then.
type pullInjector struct {
	transport.Conn
	arg  uint64
	held *transport.Message
}

func (p *pullInjector) Recv() (transport.Message, error) {
	if p.held != nil {
		m := *p.held
		p.held = nil
		return m, nil
	}
	m, err := p.Conn.Recv()
	if err == nil && m.Type == transport.MsgResumed {
		p.held = &m
		return transport.Message{Type: transport.MsgPullRequest, Arg: p.arg}, nil
	}
	return m, err
}

// TestSourceRefusesOutOfRangePull: a destination that asks for a block past
// the device must fail the migration with an error. Unchecked, the block
// number indexed the push set and the panic took the source daemon down with
// the guest already running remotely.
func TestSourceRefusesOutOfRangePull(t *testing.T) {
	for name, arg := range map[string]uint64{"one past the device": testBlocks, "2^40": 1 << 40} {
		t.Run(name, func(t *testing.T) {
			w := newWorld(t)
			w.connSrc = &pullInjector{Conn: w.connSrc, arg: arg}
			_, _, srcErr, dstErr := w.tpmPair(Config{}, Config{}, nil)
			if srcErr == nil || !strings.Contains(srcErr.Error(), "pull request for block") {
				t.Fatalf("source error %v, want the refused pull", srcErr)
			}
			if dstErr == nil || !strings.Contains(dstErr.Error(), "pull request for block") {
				t.Fatalf("destination error %v, want the source's cause", dstErr)
			}
		})
	}
}

// failingDisk fails every read of one block.
type failingDisk struct {
	blockdev.Device
	bad int
}

var errMedium = errors.New("unrecoverable medium error")

func (f failingDisk) ReadBlock(n int, buf []byte) error {
	if n == f.bad {
		return errMedium
	}
	return f.Device.ReadBlock(n, buf)
}

// TestSourceFailureReachesDestination: whichever scheme runs, a source that
// fails mid-pass tells its peer why before it returns, so the destination's
// error carries the source's cause instead of a bare closed connection.
func TestSourceFailureReachesDestination(t *testing.T) {
	const bad = 900
	schemes := map[string]func(w *world) (srcErr, dstErr error){
		"TPM": func(w *world) (error, error) {
			_, _, srcErr, dstErr := w.tpmPair(Config{}, Config{}, nil)
			return srcErr, dstErr
		},
		"IM": func(w *world) (error, error) {
			_, _, srcErr, dstErr := w.tpmPair(Config{}, Config{}, newBitmapWith(testBlocks, bad-10, 20))
			return srcErr, dstErr
		},
		"freeze-and-copy": func(w *world) (error, error) {
			return w.runPair(
				func() error { _, err := MigrateFreezeAndCopySource(Config{}, w.src, w.connSrc); return err },
				func() error { _, err := MigrateFreezeAndCopyDest(Config{}, w.dst, w.connDst); return err })
		},
		"on-demand": func(w *world) (error, error) {
			// The only disk reads of this scheme answer pulls: fault the bad
			// block in once the guest runs behind the gate.
			gateCh := make(chan *blkback.PostCopyGate, 1)
			cfg := Config{OnResume: func(g *blkback.PostCopyGate) {
				gateCh <- g
				go g.Submit(blockdev.Request{Op: blockdev.Read, Block: bad, Domain: testDomain, Data: make([]byte, blockdev.BlockSize)})
			}}
			return w.runPair(
				func() error { _, err := MigrateOnDemandSource(Config{}, w.src, w.connSrc); return err },
				func() error {
					_, err := MigrateOnDemandDest(cfg, w.dst, w.connDst, make(chan struct{}))
					(<-gateCh).Close() // fail the faulting read, still waiting on its pull
					return err
				})
		},
		"delta-forward": func(w *world) (error, error) {
			fwd := NewDeltaForwarder(w.src.Backend, w.connSrc)
			return w.runPair(
				func() error { _, err := MigrateDeltaSource(Config{}, w.src, w.connSrc, fwd); return err },
				func() error { _, err := MigrateDeltaDest(Config{}, w.dst, w.connDst); return err })
		},
	}
	for name, run := range schemes {
		t.Run(name, func(t *testing.T) {
			w := newWorld(t)
			w.src.Backend = blkback.NewBackend(failingDisk{w.srcDisk, bad}, testDomain)
			srcErr, dstErr := run(w)
			if !errors.Is(srcErr, errMedium) {
				t.Fatalf("source error %v, want the device's", srcErr)
			}
			if dstErr == nil || !strings.Contains(dstErr.Error(), errMedium.Error()) {
				t.Fatalf("destination error %v does not carry the source's cause", dstErr)
			}
		})
	}
}
