package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank q-quantile (0 < q ≤ 1) of xs: the
// smallest sample with at least q of the samples at or below it. It is
// defined for any non-empty sample, so every workload can report every
// percentile; supported says whether the sample is large enough to trust
// it. An empty sample reads 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// beyond is how many of n samples lie strictly above the q-quantile's
// rank.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailPercentiles are the candidates of highestSupported, ascending.
var tailPercentiles = []float64{0.5, 0.9, 0.99, 0.999}

// highestSupported picks the highest candidate percentile that still has
// at least ten of n samples beyond it (the choosing-metrics rule for
// reporting a tail); ok is false when even the median has fewer.
func highestSupported(n int) (q float64, ok bool) {
	for _, c := range tailPercentiles {
		if beyond(n, c) >= 10 {
			q, ok = c, true
		}
	}
	return q, ok
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method),
// which is what the acceptance check of BENCHMARK.json is computed with.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(i int) float64 { // the i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median, the
// steadiness figure a metric's bound is compared with.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
