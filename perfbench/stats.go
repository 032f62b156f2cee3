package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile
// for it to mean anything: a p99 needs at least 1000 samples.
const minTail = 10

// percentile returns the q-th percentile (0 ≤ q ≤ 100) of xs by linear
// interpolation between closest ranks. xs is sorted in place; an empty
// slice reads 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return xs[lo] + (xs[hi]-xs[lo])*frac
}

// tailPercentiles is the ladder tailPercentile picks from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of the ladder that
// leaves at least minTail of n samples beyond it, or 0 when even the
// median does not (fewer than 20 samples).
func tailPercentile(n int) float64 {
	for _, q := range tailPercentiles {
		if float64(n)*(1-q/100) >= minTail-1e-6 {
			return q
		}
	}
	return 0
}

// samplesFor is the smallest sample count whose tail beyond the q-th
// percentile holds minTail samples.
func samplesFor(q float64) int {
	return int(math.Ceil(minTail/(1-q/100) - 1e-6))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
