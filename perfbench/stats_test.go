package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := quantile(xs, 0.5); math.Abs(got-50) > 1e-9 {
		t.Errorf("median of 1..99 = %v, want 50", got)
	}
	if got := quantile(xs, 0.9); got < 89 || got > 91 {
		t.Errorf("p90 of 1..99 = %v, want about 90", got)
	}
	if got := quantile([]float64{7}, 0.5); got != 7 {
		t.Errorf("median of one sample = %v, want 7", got)
	}
}

func TestTailLadder(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{28, 50}, {40, 75}, {85, 75}, {100, 90}, {456, 95}, {1000, 99}, {10000, 99.9}} {
		if _, p := tail(make([]float64, c.n)); p != c.want {
			t.Errorf("tail of %d samples is p%v, want p%v", c.n, p, c.want)
		}
	}
}
