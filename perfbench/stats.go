package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples a reported percentile needs above it:
// a tail percentile resting on fewer samples moves with a single outlier.
const minBeyond = 10

// percentile returns the q-th percentile (0 < q < 1) of xs by the
// nearest-rank rule on the sorted samples: the smallest sample with at
// least q·n samples at or below it. It refuses a percentile with fewer than
// minBeyond samples above it, so a p90 needs at least 100 samples.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond && q > 0.5 {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", q*100, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle sample (the mean of the two middle ones for an
// even count). Unlike the tail percentiles it is reported for any count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns a workload's tail latency: the q-th percentile when the run
// holds enough samples for it (minBeyond above it), otherwise the largest
// sample. Only mega-cold, with one or two solves a run, takes the second
// branch.
func tail(xs []float64, q float64) float64 {
	if v, err := percentile(xs, q); err == nil {
		return v
	}
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// frac returns a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
