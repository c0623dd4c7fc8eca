package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 7}, 0.95, 7}, // p95 of two samples is the larger one
		{[]float64{7, 3}, 0.50, 3},
		{[]float64{5}, 0.90, 5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.90, 9},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, 0.90, 9},
		{[]float64{1, 2, 3, 4}, 0, 1},
		{[]float64{1, 2, 3, 4}, 1, 4},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	percentile(xs, 0.5)
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestBeyond(t *testing.T) {
	if got := beyond(207, 0.90); got != 20 {
		t.Errorf("beyond(207, 0.9) = %d, want 20", got)
	}
	if got := beyond(2, 0.95); got != 0 {
		t.Errorf("beyond(2, 0.95) = %d, want 0", got)
	}
	if got := beyond(10, 0.5); got != 5 {
		t.Errorf("beyond(10, 0.5) = %d, want 5", got)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{9}, 9},
		{nil, 0},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %v, want 4", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean() = %v, want 0", got)
	}
}
