package main

import (
	"math"
	"sort"
	"time"
)

// samples holds one operation kind's latencies in milliseconds.
type samples []float64

// sortedCopy returns the samples in ascending order, leaving s alone.
func (s samples) sortedCopy() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// rank is the 1-based nearest-rank position of the q-quantile among n
// ascending samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile is the nearest-rank q-quantile of ascending samples (0 when
// there are none).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// tailSupported is the reporting rule for tail percentiles: a percentile
// is printed only when at least ten samples lie beyond it, so one slow
// operation cannot be the whole number.
func tailSupported(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= 10
}

// median is the middle of the values (mean of the two middles for an
// even count); 0 for none.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the cut points Python's statistics.quantiles(vals,
// n=4) gives (the "exclusive" method) — the acceptance rule for this
// benchmark is stated in those terms, so calibration uses the same
// arithmetic. Fewer than two values return the single value thrice.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*4 // outside 0..4 when j was clamped: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// msSince is the time since t0 in milliseconds.
func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }
