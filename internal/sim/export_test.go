package sim

import "time"

// T0 exposes the oracle's first-request delay, which only strategies read.
func (r *Runner) T0() time.Duration {
	r.ensureOracle()
	return r.t0
}

// Quantiles exposes the oracle's ρ and T0 at any quantile q, computed
// afresh; the cached ρ and T0 are Quantiles(Config.RadiusQuantile).
func (r *Runner) Quantiles(q float64) (float64, time.Duration) { return r.quantiles(q) }
