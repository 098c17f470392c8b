package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to be trusted.
const tailBeyond = 10

// tail picks the highest percentile, capped at p99, that still has at
// least tailBeyond samples beyond it, and returns that sample and the
// percentile it stands for. The pick is continuous in the sample count:
// from 1000 samples up it is p99, below that it is the 11th largest
// sample, so a run that finishes a few operations more or fewer does not
// jump between rungs of a percentile ladder. With fewer than
// tailBeyond+1 samples no percentile qualifies and the median is
// returned as p50.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n <= tailBeyond {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := (99*n+99)/100 - 1 // ceil(0.99 n) - 1, in integers
	if lim := n - 1 - tailBeyond; idx > lim {
		idx = lim
	}
	return s[idx], 100 * float64(idx+1) / float64(n)
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// relDiff is |a-b| as a share of the larger magnitude; 0 when both are 0.
func relDiff(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
