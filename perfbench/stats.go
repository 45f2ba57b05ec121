package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the p-quantile (0 <= p <= 1) of xs. It returns NaN
// for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean, or NaN for an empty sample.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tail returns the highest percentile that still has at least ten samples
// beyond it, and its value. With fewer than twenty samples no percentile
// qualifies, and the median is returned.
func tail(xs []float64) (p, v float64) {
	for _, p := range tailPercentiles {
		if float64(len(xs))*(1-p) >= 10-1e-9 { // 1-p is inexact in floating point
			return p, quantile(xs, p)
		}
	}
	return 0.5, median(xs)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
