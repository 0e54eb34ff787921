package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort a copy
	}
	return xs
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"empty", nil, 0.5, 0},
		{"one sample is every percentile", []float64{7}, 0.99, 7},
		{"median of three", []float64{3, 1, 2}, 0.5, 2},
		{"median of four is the lower middle", []float64{4, 3, 2, 1}, 0.5, 2},
		{"p90 of ten", seq(10), 0.9, 9},
		{"p99 of ten is the maximum", seq(10), 0.99, 10},
		{"p99 of a thousand", seq(1000), 0.99, 990},
		{"p99.9 of a thousand", seq(1000), 0.999, 999},
	} {
		if got := percentile(tc.xs, tc.q); got != tc.want {
			t.Errorf("%s: percentile(q=%g) = %g, want %g", tc.name, tc.q, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 0.5)
	if xs[0] != 3 {
		t.Error("percentile reordered its argument")
	}
}

// TestHighestSupported pins the rule for reporting a tail: the highest
// percentile with at least ten samples beyond it.
func TestHighestSupported(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   float64
		wantOK bool
		beyond int
	}{
		{0, 0, false, 0},
		{19, 0, false, 0}, // the median of 19 has 9 beyond
		{20, 0.5, true, 10},
		{99, 0.5, true, 49},
		{100, 0.9, true, 10},
		{999, 0.9, true, 99},
		{1000, 0.99, true, 10},
		{9000, 0.99, true, 90}, // the issue's "≥ 9 000 samples, ≥ 90 beyond"
		{10000, 0.999, true, 10},
		{40000, 0.999, true, 40},
	} {
		q, ok := highestSupported(tc.n)
		if q != tc.want || ok != tc.wantOK {
			t.Errorf("highestSupported(%d) = %g, %v; want %g, %v", tc.n, q, ok, tc.want, tc.wantOK)
			continue
		}
		if ok && beyond(tc.n, q) != tc.beyond {
			t.Errorf("beyond(%d, %g) = %d, want %d", tc.n, q, beyond(tc.n, q), tc.beyond)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, which the acceptance check of
// BENCHMARK.json is computed with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10.3, 9.8, 11.2, 10.1, 9.9, 10.6, 10.0, 10.2, 10.9, 9.7}, 9.875, 10.675},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}
