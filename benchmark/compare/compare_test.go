package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	for i, pair := range [][2]float64{{q1, 1.75}, {q2, 3.5}, {q3, 5.25}} {
		if math.Abs(pair[0]-pair[1]) > 1e-12 {
			t.Errorf("quartile %d = %v, want %v", i+1, pair[0], pair[1])
		}
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	q1, q2, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q2 != 15 || q3 != 22.5 {
		t.Errorf("quartiles of two values = %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.1}
	base := side{n: 10, median: 100, spread: 0.03}
	for _, tc := range []struct {
		m    metricSpec
		b    side
		want string
	}{
		{lower, side{n: 10, median: 101, spread: 0.03}, "same"},
		{lower, side{n: 10, median: 115, spread: 0.03}, "worse"},
		{lower, side{n: 10, median: 85, spread: 0.03}, "better"},
		{lower, side{n: 10, median: 95, spread: 0.03}, "same"},
		{lower, side{n: 10, median: 98, spread: 0.03}, "same"},
		{lower, side{n: 10, median: 130, spread: 0.2}, "unresolved"},
		{higher, side{n: 10, median: 85, spread: 0.03}, "worse"},
		{higher, side{n: 10, median: 115, spread: 0.03}, "better"},
		{lower, side{}, "missing"},
	} {
		if got := verdict(tc.m, base, tc.b); got != tc.want {
			t.Errorf("%s: b median %v spread %v: verdict %q, want %q", tc.m.Name, tc.b.median, tc.b.spread, got, tc.want)
		}
	}
}
