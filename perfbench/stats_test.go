package main

import (
	"math"
	"math/rand/v2"
	"testing"
)

// ranks returns 1..n in a shuffled order.
func ranks(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	r := rand.New(rand.NewPCG(1, 2))
	r.Shuffle(n, func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s
}

func TestPercentile(t *testing.T) {
	testCases := []struct {
		name     string
		samples  []float64
		q        float64
		expected float64
	}{
		{"empty", nil, 0.5, math.NaN()},
		{"one sample p50", []float64{7}, 0.5, 7},
		{"one sample p99", []float64{7}, 0.99, 7},
		{"all ties", []float64{3, 3, 3, 3, 3}, 0.95, 3},
		{"n=10 p50", ranks(10), 0.5, 5},
		{"n=10 p95", ranks(10), 0.95, 10},
		{"n=10 p99", ranks(10), 0.99, 10},
		{"n=100 p50", ranks(100), 0.5, 50},
		{"n=100 p95", ranks(100), 0.95, 95},
		{"n=100 p99", ranks(100), 0.99, 99},
		{"n=1000 p50", ranks(1000), 0.5, 500},
		{"n=1000 p95", ranks(1000), 0.95, 950},
		{"n=1000 p99", ranks(1000), 0.99, 990},
		{"miss at the tail", []float64{1, 2, 3, inf}, 0.75, 3},
		{"miss reached", []float64{1, 2, 3, inf}, 1, inf},
	}
	for _, tc := range testCases {
		got := percentile(tc.samples, tc.q)
		if got != tc.expected && !(math.IsNaN(got) && math.IsNaN(tc.expected)) {
			t.Errorf("%s: percentile(q=%v) = %v, want %v", tc.name, tc.q, got, tc.expected)
		}
	}
}

func TestPercentileLeavesInput(t *testing.T) {
	s := []float64{3, 1, 2}
	percentile(s, 0.5)
	if s[0] != 3 || s[1] != 1 || s[2] != 2 {
		t.Fatalf("percentile reordered its input: %v", s)
	}
}

func TestWindowed(t *testing.T) {
	top := func(w []float64) float64 { return percentile(w, 1) }
	testCases := []struct {
		name     string
		samples  []float64
		size     int
		expected float64
	}{
		{"fewer than a window", []float64{4, 9, 1}, 10, 9},
		{"three windows", []float64{1, 2, 10, 3, 4, 20, 5, 6, 30}, 3, 20},
		{"remainder joins the last window", []float64{1, 2, 3, 100}, 3, 100},
		{"one stalled window moves nothing", []float64{1, 1, 1, 1, 50, 50, 1, 1, 1, 1}, 2, 1},
		{"two modes average", []float64{1, 1, 3, 3, 1, 1, 3, 3}, 2, 2},
	}
	for _, tc := range testCases {
		if got := windowed(tc.samples, tc.size, top); got != tc.expected {
			t.Errorf("%s: windowed = %v, want %v", tc.name, got, tc.expected)
		}
	}
}

func TestIQMean(t *testing.T) {
	testCases := []struct {
		name     string
		values   []float64
		expected float64
	}{
		{"empty", nil, math.NaN()},
		{"one", []float64{5}, 5},
		{"three, all kept", []float64{1, 2, 6}, 3},
		{"ends dropped", []float64{100, 2, 4, -50}, 3},
		{"middle half of eight", []float64{8, 1, 7, 2, 6, 3, 5, 4}, 4.5},
	}
	for _, tc := range testCases {
		got := iqMean(tc.values)
		if got != tc.expected && !(math.IsNaN(got) && math.IsNaN(tc.expected)) {
			t.Errorf("%s: iqMean = %v, want %v", tc.name, got, tc.expected)
		}
	}
}
