package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestWelfordAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
		w.Add(xs[i])
	}
	mean := Mean(xs)
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	variance := ss / float64(len(xs)-1)
	if !almostEqual(w.Mean(), mean, 1e-9) {
		t.Fatalf("mean %v, want %v", w.Mean(), mean)
	}
	if !almostEqual(w.Variance(), variance, 1e-9) {
		t.Fatalf("variance %v, want %v", w.Variance(), variance)
	}
}

// TestWelfordQuick property-checks Welford against the naive two-pass
// algorithm on random inputs.
func TestWelfordQuick(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		var w Welford
		for i, r := range raw {
			xs[i] = float64(r)
			w.Add(xs[i])
		}
		mean := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		wantVar := ss / float64(len(xs)-1)
		return almostEqual(w.Mean(), mean, 1e-6) && almostEqual(w.Variance(), wantVar, 1e-4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordDegenerate(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 {
		t.Fatal("empty accumulator not zero")
	}
	if !math.IsInf(w.CI95T(), 1) {
		t.Fatal("CI of empty accumulator should be infinite")
	}
	w.Add(5)
	if w.Mean() != 5 || w.Variance() != 0 {
		t.Fatal("single sample wrong")
	}
	w.Add(5)
	if w.CI95T() != 0 {
		t.Fatalf("constant samples should have zero CI, got %v", w.CI95T())
	}
}

func TestIntervalOverlaps(t *testing.T) {
	a := Interval{Mean: 10, Half: 1}
	cases := []struct {
		b    Interval
		want bool
	}{
		{Interval{Mean: 10.5, Half: 1}, true},
		{Interval{Mean: 12, Half: 1}, true}, // touching counts as overlap
		{Interval{Mean: 13, Half: 1}, false},
		{Interval{Mean: 7, Half: 1.5}, false},
		{Interval{Mean: 7, Half: 2}, true},
	}
	for i, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("case %d: Overlaps(%v) = %v, want %v", i, c.b, got, c.want)
		}
		if got := c.b.Overlaps(a); got != c.want {
			t.Errorf("case %d: overlap not symmetric", i)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	// Input must not be reordered.
	if xs[0] != 4 {
		t.Error("Percentile modified its input")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); got != 5 {
		t.Fatalf("midpoint = %v, want 5", got)
	}
	if got := Percentile(xs, 25); got != 2.5 {
		t.Fatalf("quartile = %v, want 2.5", got)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Errorf("Mean = %v", Mean(xs))
	}
}

func TestTopShareUniform(t *testing.T) {
	// 100 equal values: top 5% carries exactly 5%.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 7
	}
	if got := TopShare(xs, 0.05); !almostEqual(got, 0.05, 1e-9) {
		t.Fatalf("uniform top share = %v, want 0.05", got)
	}
}

func TestTopShareConcentrated(t *testing.T) {
	// One giant value among 99 tiny ones: top 5% carries almost all.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 0.001
	}
	xs[42] = 1000
	if got := TopShare(xs, 0.05); got < 0.99 {
		t.Fatalf("concentrated top share = %v, want > 0.99", got)
	}
}

func TestTopShareEdges(t *testing.T) {
	if TopShare(nil, 0.05) != 0 {
		t.Error("empty input")
	}
	if TopShare([]float64{1, 2}, 0) != 0 {
		t.Error("zero fraction")
	}
	if got := TopShare([]float64{5}, 0.05); got != 1 {
		t.Errorf("single value = %v, want 1", got)
	}
	if TopShare([]float64{0, 0, 0}, 0.5) != 0 {
		t.Error("all-zero values should give 0")
	}
}

// TestTopShareQuick property-checks bounds: the top-k share of non-negative
// values always lies within [frac-ish, 1] and is monotone in frac.
func TestTopShareQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		total := 0.0
		for i, r := range raw {
			xs[i] = float64(r)
			total += xs[i]
		}
		s5 := TopShare(xs, 0.05)
		s50 := TopShare(xs, 0.50)
		s100 := TopShare(xs, 1.0)
		if s5 < 0 || s5 > 1 || s50 < 0 || s50 > 1 {
			return false
		}
		if s5 > s50 || s50 > s100 {
			return false // monotone in fraction
		}
		if total > 0 && !almostEqual(s100, 1, 1e-9) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTCrit95(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{1, 12.706}, {2, 4.303}, {4, 2.776}, {30, 2.042}, {31, 1.96}, {1000, 1.96},
	}
	for _, c := range cases {
		if got := tCrit95(c.df); got != c.want {
			t.Errorf("tCrit95(%d) = %v, want %v", c.df, got, c.want)
		}
	}
	if !math.IsInf(tCrit95(0), 1) {
		t.Error("tCrit95(0) finite — one sample must not claim an interval")
	}
}

func TestCI95TUsesStudentT(t *testing.T) {
	var w Welford
	w.Add(10)
	w.Add(12)
	// n=2, df=1: half-width is 12.706·s/√2, not the z-based 1.96·s/√2.
	want := 12.706 * w.StdDev() / math.Sqrt2
	if got := w.CI95T(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("CI95T = %v, want %v", got, want)
	}
	var one Welford
	one.Add(5)
	if !math.IsInf(one.CI95T(), 1) {
		t.Fatal("single-sample CI95T finite")
	}
}
