package main

import (
	"math"
	"sort"
)

// median returns the median of xs (mean of the middle pair for even
// lengths), NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, NaN for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailMinBeyond is how many pooled samples must lie beyond a reported
// tail percentile; tailMinSamples is the pool size below which the tail
// would sit under the median and is not reported at all.
const (
	tailMinBeyond  = 10
	tailMinSamples = 2 * tailMinBeyond
)

// tail returns the highest percentile of xs that has at least ten
// samples beyond it, and which percentile that is. ok is false when
// fewer than 20 samples exist.
func tail(xs []float64) (value, percentile float64, ok bool) {
	n := len(xs)
	if n < tailMinSamples {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - tailMinBeyond - 1 // exactly ten samples sort after s[i]
	return s[i], 100 * float64(i+1) / float64(n), true
}
