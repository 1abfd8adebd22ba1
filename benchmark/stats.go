package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartileSpread is the spread as the benchmark's driver computes it: the
// distance between the first and third quartile by the "exclusive" method
// (Python's statistics.quantiles(values, n=4)), as a share of the median.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	m := median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p*float64(n+1) - 1 // 0-based position among the order statistics
		lo := int(math.Floor(pos))
		lo = max(0, min(lo, n-2))
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return (q(0.75) - q(0.25)) / math.Abs(m)
}

// column extracts one field of every sample.
func column(samples []sample, f func(*sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i := range samples {
		out[i] = f(&samples[i])
	}
	return out
}
