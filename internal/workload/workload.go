// Package workload provides deterministic, seeded block-I/O generators that
// stand in for the paper's three evaluation workloads (§VI-B) plus the
// kernel-build trace used for the write-locality statistics (§IV-A-2):
//
//   - WebServer: a SPECweb2005-banking-like dynamic web server — bursty
//     writes with strong locality, scattered reads.
//   - Streaming: a Samba video-streaming server — continuous sequential
//     reads at stream rate, rare sequential log appends.
//   - Diabolical: a Bonnie++-like disk exerciser — phased sequential
//     output (per-char and block), rewrite, sequential input, and random
//     seeks at disk speed.
//   - KernelBuild: a compile-like trace of many small file creates with
//     occasional metadata rewrites.
//
// Each generator emits an infinite, reproducible stream of timed block
// accesses. The migration engine replays them against a real device in
// integration tests and the CLI's demo; the paper-scale simulator consumes them
// directly at bitmap level. The same streams feed the locality analysis that
// reproduces the paper's rewrite percentages (kernel build ≈ 11%, SPECweb ≈
// 25.2%, Bonnie++ ≈ 35.6%).
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"bbmig/internal/blockdev"
)

// Access is one timed block-granular I/O: Count consecutive blocks starting
// at Block, issued at absolute workload time At.
type Access struct {
	At    time.Duration
	Op    blockdev.Op
	Block int
	Count int
}

// Generator produces an infinite, deterministic stream of accesses in
// non-decreasing At order. Generators are not safe for concurrent use.
type Generator interface {
	// Name identifies the workload in reports.
	Name() string
	// Next returns the next access.
	Next() Access
	// Reset restarts the stream from time zero with the original seed.
	Reset()
}

// MemoryProfile describes how a workload dirties guest memory, the input to
// the Xen-style iterative memory pre-copy. HotPages is the writable working
// set that is re-dirtied continuously; DirtyRate is pages/second touched
// (spread over the hot set).
type MemoryProfile struct {
	HotPages  int
	DirtyRate float64
}

// Kind selects one of the built-in workloads.
type Kind int

// Built-in workload kinds.
const (
	// Web is the dynamic web server (SPECweb-banking-like).
	Web Kind = iota
	// Stream is the low-latency video streaming server.
	Stream
	// Diabolic is the Bonnie++-like I/O-intensive server.
	Diabolic
	// Kernel is the Linux-kernel-build-like write trace.
	Kernel
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Web:
		return "dynamic-web-server"
	case Stream:
		return "low-latency-server"
	case Diabolic:
		return "diabolical-server"
	case Kernel:
		return "kernel-build"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// New returns the generator of the given kind over a disk of numBlocks.
func New(kind Kind, numBlocks int, seed int64) Generator {
	switch kind {
	case Web:
		return NewWebServer(numBlocks, seed)
	case Stream:
		return NewStreaming(numBlocks, seed)
	case Diabolic:
		return NewDiabolical(numBlocks, seed)
	case Kernel:
		return NewKernelBuild(numBlocks, seed)
	default:
		panic(fmt.Sprintf("workload: unknown kind %d", kind))
	}
}

// Profile returns the memory-dirtying profile the paper's workloads exhibit:
// the web server re-dirties a moderate working set (session state, buffer
// cache metadata), the streaming server barely touches memory, and Bonnie++
// churns its I/O buffers hard — which is why the paper's downtimes are
// 60/62/110 ms respectively.
func Profile(kind Kind) MemoryProfile {
	switch kind {
	case Web:
		return MemoryProfile{HotPages: 2000, DirtyRate: 4000}
	case Stream:
		return MemoryProfile{HotPages: 600, DirtyRate: 1200}
	case Diabolic:
		return MemoryProfile{HotPages: 900, DirtyRate: 25000}
	case Kernel:
		return MemoryProfile{HotPages: 4000, DirtyRate: 8000}
	default:
		return MemoryProfile{HotPages: 1000, DirtyRate: 2000}
	}
}

// merge2 interleaves two access streams by time. Generators use it to
// combine independent read and write processes.
type merge2 struct {
	a, b   func() Access
	pa, pb *Access
}

func (m *merge2) next() Access {
	if m.pa == nil {
		a := m.a()
		m.pa = &a
	}
	if m.pb == nil {
		b := m.b()
		m.pb = &b
	}
	if m.pa.At <= m.pb.At {
		out := *m.pa
		m.pa = nil
		return out
	}
	out := *m.pb
	m.pb = nil
	return out
}

func (m *merge2) reset() { m.pa, m.pb = nil, nil }

// expo returns an exponentially distributed interarrival time with the given
// mean, clamped to keep event streams well-behaved.
func expo(rng *rand.Rand, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	d := time.Duration(rng.ExpFloat64() * float64(mean))
	if d > 20*mean {
		d = 20 * mean
	}
	return d
}
