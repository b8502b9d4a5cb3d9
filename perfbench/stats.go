package main

import (
	"math"
	"sort"
)

// tailBeyond is the number of samples a reported tail leaves above it.
const tailBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample (the mean of the two middle ones for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile is the Harrell–Davis estimate of the p-quantile of xs: a
// weighted mean of all order statistics with Beta((n+1)p, (n+1)(1-p))
// weights. Unlike a single order statistic it moves smoothly when noise
// reorders samples of different kinds of operation that sit around the
// quantile, which keeps run-to-run spread down on mixed workloads.
func quantile(xs []float64, p float64) float64 {
	s := sorted(xs)
	n := float64(len(s))
	a, b := p*(n+1), (1-p)*(n+1)
	q, prev := 0.0, 0.0
	for i, x := range s {
		cur := betaInc(float64(i+1)/n, a, b)
		q += (cur - prev) * x
		prev = cur
	}
	return q
}

// tailLadder is the percentiles a tail is chosen from.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of tailLadder that has at least
// tailBeyond samples above it, and its estimate.
func tail(xs []float64) (value, pct float64) {
	for _, p := range tailLadder {
		if float64(len(xs))*(100-p)/100 >= tailBeyond-1e-9 || p == 50 {
			return quantile(xs, p/100), p
		}
	}
	panic("unreachable: the ladder ends at the median")
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func betaInc(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

func betaCF(x, a, b float64) float64 {
	const eps, tiny = 1e-15, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}
