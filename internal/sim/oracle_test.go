package sim_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"emcast/internal/sim"
	"emcast/internal/topology"
)

// sortedQuantile is the reference the oracle is held to: element
// int(q·(N−1)) of the sorted pairwise distribution.
func sortedQuantile(sorted []float64, q float64) float64 {
	return sorted[int(q*float64(len(sorted)-1))]
}

// pairwise lists every ordered pair's latency (ns) and plane distance.
func pairwise(m *topology.Matrix, n int) (lats, dists []float64) {
	lats, dists = make([]float64, 0, n*(n-1)), make([]float64, 0, n*(n-1))
	row := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		m.LatencyRowInto(row, i)
		for j := 0; j < n; j++ {
			if i != j {
				lats = append(lats, float64(row[j]))
				dists = append(dists, m.Distance(i, j))
			}
		}
	}
	slices.Sort(lats)
	slices.Sort(dists)
	return lats, dists
}

// TestOracleExact holds ρ and T0 to a full sort of the pairwise
// distributions, for both oracle metrics, several quantiles, and
// populations up to 2,100 nodes. -short skips the 2,100-node cells, which
// take most of the test's time.
func TestOracleExact(t *testing.T) {
	sizes := []int{100, 1000, 2100}
	if testing.Short() {
		sizes = sizes[:2]
	}
	tp := topology.DefaultParams().Scaled(8)
	for _, nodes := range sizes {
		for _, seed := range []int64{1, 2, 3, 7, 88} {
			t.Run(fmt.Sprintf("n=%d/seed=%d", nodes, seed), func(t *testing.T) {
				t.Parallel()
				var lats, dists []float64
				for _, distance := range []bool{false, true} {
					cfg := sim.DefaultConfig()
					cfg.Nodes, cfg.Seed, cfg.Topology = nodes, seed, &tp
					cfg.DistanceMetric = distance
					r := sim.New(cfg)
					if lats == nil {
						lats, dists = pairwise(r.Matrix(), nodes)
					}
					for _, q := range []float64{0.05, 0.1, 0.5, 0.9} {
						rho, t0 := r.Quantiles(q)
						wantT0 := sortedQuantile(lats, q)
						wantRho := wantT0 / float64(time.Millisecond)
						if distance {
							wantRho = sortedQuantile(dists, q)
						}
						if rho != wantRho || t0 != time.Duration(wantT0) {
							t.Errorf("distance=%v q=%v: ρ=%v T0=%v, sorted ρ=%v T0=%v",
								distance, q, rho, t0, wantRho, time.Duration(wantT0))
						}
					}
					if rho, t0 := r.Quantiles(cfg.RadiusQuantile); r.Rho() != rho || r.T0() != t0 {
						t.Errorf("distance=%v: cached ρ=%v T0=%v, Quantiles gives %v %v", distance, r.Rho(), r.T0(), rho, t0)
					}
				}
			})
		}
	}
}

// TestOracleMemory pins that the oracle streams: at 2,048 nodes the pairwise
// distributions would be 4.2M float64s (33 MB each); the whole oracle,
// ranking included, allocates at most 2 MB.
func TestOracleMemory(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Nodes = 2048
	tp := topology.DefaultParams().Scaled(8)
	cfg.Topology = &tp
	r := sim.New(cfg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.Rho()
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2<<20 {
		t.Fatalf("2,048-node oracle allocated %.2f MB, limit 2 MB", float64(alloc)/(1<<20))
	}
}
