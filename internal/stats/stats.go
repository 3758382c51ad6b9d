// Package stats provides the statistical machinery used to evaluate
// experiments: online mean/variance, 95% confidence intervals (paper §5.4
// requires non-intersecting confidence intervals to claim a difference),
// percentiles, and the top-k link share metric used to quantify emergent
// structure (paper §6.1).
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Welford accumulates mean and variance online using Welford's algorithm.
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates a sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples seen.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean, or 0 with no samples.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// CI95 returns the half-width of the 95% confidence interval of the mean,
// using the normal approximation (the paper's sample counts are in the tens
// of thousands, making the approximation exact for practical purposes).
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return math.Inf(1)
	}
	return 1.96 * w.StdDev() / math.Sqrt(float64(w.n))
}

// tCrit95 holds two-sided 95% Student's t critical values by degrees of
// freedom (1-based index; index 0 unused). Beyond the table the normal
// approximation is accurate to well under 2%.
var tCrit95 = [...]float64{0,
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCrit95 returns the two-sided 95% Student's t critical value for the
// given degrees of freedom — the correct interval multiplier at the
// small sample counts sweep replicates have (at df=1 the z value 1.96
// understates the half-width 6.5×). Non-positive df returns +Inf (no
// interval can be claimed from one sample).
func TCrit95(df int) float64 {
	switch {
	case df <= 0:
		return math.Inf(1)
	case df < len(tCrit95):
		return tCrit95[df]
	default:
		return 1.96
	}
}

// CI95T returns the half-width of the 95% confidence interval of the
// mean using the Student's t distribution — appropriate for small
// sample counts, where the plain CI95's normal approximation is far too
// narrow.
func (w *Welford) CI95T() float64 {
	if w.n < 2 {
		return math.Inf(1)
	}
	return TCrit95(w.n-1) * w.StdDev() / math.Sqrt(float64(w.n))
}

// Interval describes a mean with its 95% confidence half-width.
type Interval struct {
	Mean float64
	Half float64
}

// Interval returns the mean and its 95% confidence half-width.
func (w *Welford) Interval() Interval {
	return Interval{Mean: w.mean, Half: w.CI95()}
}

// Overlaps reports whether two confidence intervals intersect. The paper
// claims a performance difference only when intervals do not intersect.
func (i Interval) Overlaps(o Interval) bool {
	return math.Abs(i.Mean-o.Mean) <= i.Half+o.Half
}

// String formats the interval as "mean ± half".
func (i Interval) String() string {
	return fmt.Sprintf("%.2f ± %.2f", i.Mean, i.Half)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice. The
// input is read in place by Kth: neither copied, sorted nor modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	values := slices.Values(xs)
	if p <= 0 {
		return Kth(values, 0)
	}
	if p >= 100 {
		return Kth(values, len(xs)-1)
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return Kth(values, lo)
	}
	frac := rank - float64(lo)
	return Kth(values, lo)*(1-frac) + Kth(values, hi)*frac
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// FractionWithin returns the fraction of samples x with lo <= x <= hi.
func FractionWithin(xs []float64, lo, hi float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x >= lo && x <= hi {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// TopShare returns the share of the total carried by the top frac (e.g.
// 0.05) of the values. This is the paper's emergent-structure metric: the
// share of payload traffic carried by the 5% most used connections. A
// perfectly even spread over n values yields ~frac; concentrated structure
// yields a much larger share.
func TopShare(values []float64, frac float64) float64 {
	if len(values) == 0 || frac <= 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	k := int(math.Ceil(frac * float64(len(sorted))))
	if k > len(sorted) {
		k = len(sorted)
	}
	top, total := 0.0, 0.0
	for i, v := range sorted {
		total += v
		if i < k {
			top += v
		}
	}
	if total == 0 {
		return 0
	}
	return top / total
}
