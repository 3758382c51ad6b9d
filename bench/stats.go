package main

import (
	"math"
	"sort"

	"emcast/internal/stats"
)

// summary is how every metric is reported over repetitions: median,
// quartiles and sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Median: stats.Percentile(xs, 50), Q1: q1, Q3: q3, N: len(xs)}
}

// spread is the inter-quartile range as a share of the median — the
// steadiness figure the bounds are judged against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so spreads
// computed here match the ones the benchmark is accepted by. Fewer than
// two samples have no spread: both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	at := func(i int) float64 { // cut point i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}

// ratio is a/b, 0 when b is 0: a layer that did no work reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
