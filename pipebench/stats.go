package main

import (
	"math"
	"sort"
)

// Statistics over raw samples. Nothing here reads a histogram: every
// median and percentile is an order statistic of the recorded values.

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples
// when the count is even. It is 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile: the smallest sample with
// at least q of all samples at or below it (rank ceil(q*n)). The p95 of
// two samples is the larger one. It is 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted(xs)[rank-1]
}

// beyond is how many samples lie strictly above the nearest-rank q
// percentile's rank, the tail the percentile rests on.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		return 0
	}
	return n - rank
}

// geomean is the geometric mean of positive samples; it is 0 for no
// samples or any sample that is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// sum adds the samples.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
