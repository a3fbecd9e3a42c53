package main

import (
	"math"
	"sort"
)

// Aggregation helpers. Every per-run figure the benchmark prints is one
// of these over many operations: a nearest-rank percentile over
// thousands of requests, a median over many batches, or a sum.

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1): the
// smallest sample with at least p·n samples at or below it. It is NaN
// for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle sample, or the mean of the two middle samples
// for an even count. It is NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// beyond counts the samples strictly above v: how many samples a
// percentile rests on from above.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// deciles returns the nearest-rank 10th, 20th, ..., 90th percentiles.
func deciles(xs []float64) []float64 {
	out := make([]float64, 9)
	for i := range out {
		out[i] = percentile(xs, float64(i+1)/10)
	}
	return out
}
