package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest value with at least p % of the samples at
// or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// samplesBeyond is how many of n samples lie above the nearest-rank p-th
// percentile.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}

// supported reports whether a percentile may be reported: a tail figure
// needs at least ten samples beyond it.
func supported(n int, p float64) bool { return samplesBeyond(n, p) >= 10 }

// median of an unsorted slice (the mean of the middle two when even, as
// Python's statistics.median). It sorts a copy.
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

// sum adds the values.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
