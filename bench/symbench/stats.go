package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count) and 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rankOf(len(s), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 99.9 % of 10000 is 9990, not 9990.000000000002
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLadder lists the tail percentiles a timing may be annotated with,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest percentile of tailLadder that still has at least
// ten samples beyond it, with its value. ok is false when the sample is too
// small to support any of them (fewer than 40 samples): a tail read off
// fewer than ten samples does not repeat from run to run.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	for _, p := range tailLadder {
		if n-rankOf(n, p) >= 10 {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does, so the
// spreads -compare prints are the ones the benchmark's acceptance rule uses.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}
