package main

import "sort"

// rankOf is the 1-based nearest-rank position of the p-th percentile
// (p in whole percent) among n sorted samples: ceil(p·n/100), computed in
// integers so 99% of 1000 is rank 990, not 991.
func rankOf(n, p int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// beyond is how many of n samples lie above the p-th percentile.
func beyond(n, p int) int { return n - rankOf(n, p) }

// minSamplesFor is the smallest sample count that leaves at least tail
// samples above the p-th percentile.
func minSamplesFor(p, tail int) int {
	n := 1
	for beyond(n, p) < tail {
		n++
	}
	return n
}

// percentile returns the nearest-rank p-th percentile of xs (sorted in
// place).
func percentile(xs []float64, p int) float64 {
	sort.Float64s(xs)
	return xs[rankOf(len(xs), p)-1]
}

// median of xs (sorted in place); the mean of the middle pair when even.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
