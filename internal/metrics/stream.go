package metrics

// StreamStats is a single-pass accumulator for a stream of values: count,
// mean, and max in O(1) memory. The fleet simulator aggregates per-domain
// outcomes at 10k-domain scale through it instead of materializing
// per-domain time series.
//
// The zero value is an empty accumulator ready for Add. StreamStats is not
// safe for concurrent use.
type StreamStats struct {
	n         int64
	mean, max float64
}

// Add folds one value into the accumulator.
func (s *StreamStats) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.mean, s.max = x, x
		return
	}
	s.mean += (x - s.mean) / float64(s.n)
	if x > s.max {
		s.max = x
	}
}

// Count returns how many values were added.
func (s *StreamStats) Count() int64 { return s.n }

// Mean returns the running mean (zero when empty).
func (s *StreamStats) Mean() float64 { return s.mean }

// Max returns the largest value seen (zero when empty).
func (s *StreamStats) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}
