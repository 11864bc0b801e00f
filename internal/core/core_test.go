package core

import (
	"math"
	"testing"
)

func TestDist(t *testing.T) {
	for _, c := range []struct {
		u, v Value
		want Distance
	}{
		{0, 0, 0},
		{150, 100, 50},
		{100, 150, 50},
		{-5, 5, 10},
		{math.MaxInt64, 0, NoLimit},
		{0, math.MinInt64 + 1, NoLimit},
		{-1, math.MaxInt64, NoLimit},
		{math.MinInt64, -1, NoLimit},
		// |u − v| exceeds MaxInt64 from here on: saturate, never wrap.
		{math.MinInt64, 0, NoLimit},
		{math.MinInt64, 100, NoLimit},
		{100, math.MinInt64, NoLimit},
		{math.MaxInt64, math.MinInt64, NoLimit},
		{math.MinInt64, math.MaxInt64, NoLimit},
		{math.MinInt64, math.MinInt64, 0},
		{math.MaxInt64, math.MaxInt64, 0},
	} {
		if got := Dist(c.u, c.v); got != c.want {
			t.Errorf("Dist(%d, %d) = %d, want %d", c.u, c.v, got, c.want)
		}
	}
}
