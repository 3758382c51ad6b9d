package stats

import (
	"encoding/binary"
	"iter"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// sortedKth is the reference Kth is held to: element k of a sorted copy.
func sortedKth(xs []float64, k int) float64 {
	sorted := slices.Clone(xs)
	sort.Float64s(sorted)
	return sorted[k]
}

// sameFloat compares as sort.Float64s ranks: ±0 equal, NaN equal to NaN.
func sameFloat(a, b float64) bool { return a == b || a != a && b != b }

func TestKthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	draws := map[string]func() float64{
		"uniform":     func() float64 { return rng.Float64()*200 - 100 },
		"latency-ns":  func() float64 { return float64(rng.Int63n(int64(200e6))) },
		"few-values":  func() float64 { return float64(rng.Intn(4)) },
		"exponential": func() float64 { return rng.ExpFloat64() },
	}
	for name, draw := range draws {
		for _, n := range []int{1, 2, 7, 1000, 3 * kthCollect} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = draw()
			}
			sorted := slices.Clone(xs)
			sort.Float64s(sorted)
			for _, k := range []int{0, n / 10, n / 2, n - 1} {
				if got, want := Kth(slices.Values(xs), k), sorted[k]; got != want {
					t.Fatalf("%s n=%d k=%d: Kth = %v, sorted %v", name, n, k, got, want)
				}
			}
		}
	}
}

func TestKthEdges(t *testing.T) {
	if got := Kth(slices.Values([]float64(nil)), 0); got != 0 {
		t.Fatalf("empty: Kth = %v, want 0", got)
	}
	xs := []float64{3, math.NaN(), -0.0, math.Inf(-1), 2, math.Inf(1), -7.5, 0}
	for k := range xs {
		if got, want := Kth(slices.Values(xs), k), sortedKth(xs, k); !sameFloat(got, want) {
			t.Fatalf("k=%d: Kth = %v, sorted %v", k, got, want)
		}
	}
	if got := Kth(slices.Values(xs), -3); !math.IsNaN(got) {
		t.Fatalf("k below range: Kth = %v, want the minimum (NaN)", got)
	}
	if got := Kth(slices.Values(xs), 99); !math.IsInf(got, 1) {
		t.Fatalf("k above range: Kth = %v, want the maximum (+Inf)", got)
	}
}

// generate yields n values without materialising them: v(i) for each i.
func generate(n int, v func(int) float64) iter.Seq[float64] {
	return func(yield func(float64) bool) {
		for i := range n {
			if !yield(v(i)) {
				return
			}
		}
	}
}

// TestKthMemoryBounded streams 2^20 values that no slice holds: all equal,
// and one giant bucket that forces refinement passes. Neither may allocate
// in proportion to n (8 MiB as float64s).
func TestKthMemoryBounded(t *testing.T) {
	const n = 1 << 20
	cases := []struct {
		name  string
		k     int
		v     func(int) float64
		limit uint64
	}{
		{"all-equal", n / 2, func(int) float64 { return 42 }, 4 << 10},
		// One far outlier puts every clustered value in the first bucket;
		// the cluster holds 1000 distinct values a few ulps apart.
		{"giant-bucket", n / 3, func(i int) float64 {
			if i == 0 {
				return 1e300
			}
			return math.Float64frombits(math.Float64bits(1) + uint64(i%1000))
		}, 1 << 20},
		// As above with every value distinct, 7 ulps apart: the passes
		// narrow to a bucket of a few thousand keys, which is collected.
		{"refine-then-collect", n / 3, func(i int) float64 {
			if i == 0 {
				return 1e300
			}
			return math.Float64frombits(math.Float64bits(1) + uint64(7*i))
		}, 1 << 20},
	}
	for _, c := range cases {
		values := generate(n, c.v)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := Kth(values, c.k)
		runtime.ReadMemStats(&after)
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes > c.limit {
			t.Errorf("%s: Kth allocated %d bytes, limit %d", c.name, bytes, c.limit)
		}
		xs := slices.Collect(values)
		if want := sortedKth(xs, c.k); got != want {
			t.Errorf("%s: Kth = %v, sorted %v", c.name, got, want)
		}
	}
}

// FuzzKth holds Kth to a sorted copy on arbitrary float64 bit patterns.
// data is read as little-endian float64s; pad then appends that many
// copies of them, cycled, so a short input can grow past one 2^16-key
// bucket and exercise the refinement passes. k is reduced into range.
func FuzzKth(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, k int, pad uint32) {
		var xs []float64
		for ; len(data) >= 8; data = data[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		if len(xs) == 0 {
			if got := Kth(slices.Values(xs), k); got != 0 {
				t.Fatalf("empty: Kth = %v, want 0", got)
			}
			return
		}
		distinct := len(xs)
		for i := range int(pad % (1 << 17)) {
			xs = append(xs, xs[i%distinct])
		}
		k = int(uint(k) % uint(len(xs)))
		if got, want := Kth(slices.Values(xs), k), sortedKth(xs, k); !sameFloat(got, want) {
			t.Fatalf("n=%d k=%d: Kth = %v (%#x), sorted %v (%#x)",
				len(xs), k, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
