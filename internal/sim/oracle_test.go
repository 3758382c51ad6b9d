package sim_test

import (
	"math"
	"sort"
	"testing"
	"time"

	"emcast/internal/sim"
	"emcast/internal/topology"
)

// TestStreamingOracleAccuracy runs a population just above the exactness
// cutoff, so ensureOracle takes the row-streaming P² path, and checks ρ
// and T0 against the exact quantiles brute-forced from the same matrix.
func TestStreamingOracleAccuracy(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Nodes = sim.OracleExactCutoff + 52
	cfg.Strategy = sim.StrategyRadius
	tp := topology.DefaultParams().Scaled(2)
	cfg.Topology = &tp
	r := sim.New(cfg)

	rho := r.Rho()

	var lats []float64
	row := make([]time.Duration, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		r.Matrix().LatencyRowInto(row, i)
		for j := 0; j < cfg.Nodes; j++ {
			if i != j {
				lats = append(lats, float64(row[j]))
			}
		}
	}
	sort.Float64s(lats)
	exact := lats[int(cfg.RadiusQuantile*float64(len(lats)-1))]
	exactRhoMS := exact / float64(time.Millisecond)

	if rho <= 0 {
		t.Fatalf("streaming ρ = %v, want > 0", rho)
	}
	if rel := math.Abs(rho-exactRhoMS) / exactRhoMS; rel > 0.02 {
		t.Errorf("streaming ρ = %.4f ms, exact %.4f ms (relative error %.3f > 0.02)", rho, exactRhoMS, rel)
	}
}
