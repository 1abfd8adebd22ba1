// Package vm models the migrated virtual machine: paged memory with
// dirty-page tracking, opaque CPU state, and the running/suspended lifecycle.
//
// The paper's memory migration is inherited unchanged from Xen live
// migration (Clark et al., NSDI'05): iterative pre-copy with a dirty-page
// bitmap, then a final copy of remaining dirty pages during the freeze. This
// package provides the substrate — paged memory whose writes are tracked in
// an atomic bitmap exactly like disk writes are tracked in the block-bitmap —
// and the engine in internal/core drives the iterations.
package vm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bbmig/internal/bitmap"
)

// PageSize is the guest page granularity.
const PageSize = 4096

// Memory is the guest's physical memory: numPages pages of pageSize bytes,
// lazily allocated, with optional dirty tracking. It is safe for concurrent
// use; the guest workload writes pages while the migration engine snapshots
// the dirty bitmap.
type Memory struct {
	mu       sync.RWMutex
	pages    map[int][]byte
	pageSize int
	numPages int
	dirty    *bitmap.Atomic
	tracking atomic.Bool
	writes   atomic.Int64
}

// NewMemory returns a zeroed Memory with numPages pages of pageSize bytes.
func NewMemory(numPages, pageSize int) *Memory {
	if numPages < 0 || pageSize <= 0 {
		panic(fmt.Sprintf("vm: bad memory geometry %dx%d", numPages, pageSize))
	}
	return &Memory{
		pages:    make(map[int][]byte),
		pageSize: pageSize,
		numPages: numPages,
		dirty:    bitmap.NewAtomic(numPages),
	}
}

// PageSize returns the page size in bytes.
func (m *Memory) PageSize() int { return m.pageSize }

// NumPages returns the number of pages.
func (m *Memory) NumPages() int { return m.numPages }

// check validates a page number.
func (m *Memory) check(n int) error {
	if n < 0 || n >= m.numPages {
		return fmt.Errorf("vm: page %d out of range [0,%d)", n, m.numPages)
	}
	return nil
}

// ReadPage copies page n into dst (len ≥ PageSize). Unwritten pages read as
// zeros.
func (m *Memory) ReadPage(n int, dst []byte) error {
	if err := m.check(n); err != nil {
		return err
	}
	if len(dst) < m.pageSize {
		return fmt.Errorf("vm: read buffer %d < page size %d", len(dst), m.pageSize)
	}
	m.mu.RLock()
	p := m.pages[n]
	if p == nil {
		m.mu.RUnlock()
		clear(dst[:m.pageSize])
		return nil
	}
	copy(dst, p)
	m.mu.RUnlock()
	return nil
}

// WritePage overwrites page n with src and, when tracking is on, marks the
// page dirty — the software analogue of the shadow-page-table write faults
// Xen uses to populate its dirty bitmap.
func (m *Memory) WritePage(n int, src []byte) error {
	if err := m.check(n); err != nil {
		return err
	}
	if len(src) < m.pageSize {
		return fmt.Errorf("vm: write buffer %d < page size %d", len(src), m.pageSize)
	}
	m.mu.Lock()
	p := m.pages[n]
	if p == nil {
		p = make([]byte, m.pageSize)
		m.pages[n] = p
	}
	copy(p, src)
	m.mu.Unlock()
	m.writes.Add(1)
	if m.tracking.Load() {
		m.dirty.Set(n)
	}
	return nil
}

// StartTracking begins recording dirtied pages.
func (m *Memory) StartTracking() { m.tracking.Store(true) }

// StopTracking stops recording dirtied pages and drains what was recorded:
// the final dirty set of a frozen guest, or the leftovers of a migration that
// gave up, which a later attempt must not mistake for fresh evidence.
func (m *Memory) StopTracking() *bitmap.Bitmap {
	m.tracking.Store(false)
	return m.dirty.SwapOut()
}

// Tracking reports whether dirty tracking is active.
func (m *Memory) Tracking() bool { return m.tracking.Load() }

// SwapDirty atomically captures and clears the dirty-page bitmap; the
// iterative pre-copy calls this at each iteration boundary.
func (m *Memory) SwapDirty() *bitmap.Bitmap { return m.dirty.SwapOut() }

// DirtyView returns a read-only view of the live dirty-page bitmap, for the
// pre-copy send cursor to leave out pages already written again.
func (m *Memory) DirtyView() bitmap.View { return m.dirty.View() }

// DirtyCount returns the current number of dirty pages.
func (m *Memory) DirtyCount() int { return m.dirty.Count() }

// Writes returns the total number of page writes ever applied.
func (m *Memory) Writes() int64 { return m.writes.Load() }

// AllocatedPages returns how many pages have ever been written.
func (m *Memory) AllocatedPages() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pages)
}
