package workload

import (
	"bytes"
	"fmt"
	"sync"

	"bbmig/internal/blockdev"
)

// Shadow is a verifying guest's model of its disk. A write passed through
// Submit gets a fresh FillBlock generation and is mirrored; a read must
// return what the mirror holds. The lock spans the wrapped submit, so Verify
// never sees a write half-applied while the guest runs.
type Shadow struct {
	submit func(blockdev.Request) error
	mu     sync.Mutex
	gen    uint32
	mirror *blockdev.MemDisk
}

// NewShadow returns a shadow, in front of submit, of what base holds now.
func NewShadow(base blockdev.Device, submit func(blockdev.Request) error) (*Shadow, error) {
	s := &Shadow{submit: submit, mirror: blockdev.NewMemDisk(base.NumBlocks(), base.BlockSize())}
	held, err := blockdev.Diff(base, s.mirror) // against an empty mirror: where base holds data
	buf := make([]byte, base.BlockSize())
	for i := 0; err == nil && i < len(held); i++ {
		if err = base.ReadBlock(held[i], buf); err == nil {
			err = s.mirror.WriteBlock(held[i], buf)
		}
	}
	return s, err
}

// Submit passes req on, then mirrors a write or checks a read.
func (s *Shadow) Submit(req blockdev.Request) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Op == blockdev.Write {
		s.gen++
		FillBlock(req.Data, req.Block, s.gen)
	}
	if err := s.submit(req); err != nil {
		return err
	}
	if req.Op == blockdev.Write {
		return s.mirror.WriteBlock(req.Block, req.Data)
	}
	want := make([]byte, s.mirror.BlockSize())
	if err := s.mirror.ReadBlock(req.Block, want); err != nil {
		return err
	}
	if !bytes.Equal(req.Data[:len(want)], want) {
		return fmt.Errorf("workload: stale read of block %d", req.Block)
	}
	return nil
}

// Verify reports whether dev holds exactly the guest's disk.
func (s *Shadow) Verify(dev blockdev.Device) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	diffs, err := blockdev.Diff(dev, s.mirror)
	if err == nil && len(diffs) > 0 {
		err = fmt.Errorf("workload: %d blocks differ from the guest's writes (first: %d)", len(diffs), diffs[0])
	}
	return err
}
