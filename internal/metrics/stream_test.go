package metrics

import (
	"math"
	"testing"
)

// TestStreamStats checks the single-pass mean and max against direct
// computation.
func TestStreamStats(t *testing.T) {
	var empty StreamStats
	if empty.Count() != 0 || empty.Mean() != 0 || empty.Max() != 0 {
		t.Fatalf("zero value not empty: %+v", empty)
	}

	// A deterministic, not-too-nice sequence.
	var xs []float64
	x := 0.5
	for i := 0; i < 1000; i++ {
		x = 3.9 * x * (1 - x) // logistic map: chaotic but reproducible
		xs = append(xs, 100*x-25)
	}

	var s StreamStats
	var sum float64
	max := math.Inf(-1)
	for _, v := range xs {
		s.Add(v)
		sum += v
		max = math.Max(max, v)
	}
	mean := sum / float64(len(xs))

	if s.Count() != int64(len(xs)) {
		t.Fatalf("Count = %d, want %d", s.Count(), len(xs))
	}
	if math.Abs(s.Mean()-mean) > 1e-9 {
		t.Fatalf("Mean = %g, want %g", s.Mean(), mean)
	}
	if s.Max() != max {
		t.Fatalf("Max = %g, want %g", s.Max(), max)
	}
}
