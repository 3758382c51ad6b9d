package sim

import (
	"time"

	"emcast/internal/lazy"
)

// Rho exposes the oracle's radius threshold.
func (r *Runner) Rho() float64 {
	r.ensureOracle()
	return r.rho
}

// OracleDone reports whether the oracle has been computed.
func (r *Runner) OracleDone() bool { return r.oracleDone }

// T0 exposes the oracle's first-request delay, which only strategies read.
func (r *Runner) T0() time.Duration {
	r.ensureOracle()
	return r.t0
}

// Quantiles exposes the oracle's ρ and T0 at any quantile q, computed
// afresh; the cached ρ and T0 are Quantiles(Config.RadiusQuantile).
func (r *Runner) Quantiles(q float64) (float64, time.Duration) { return r.quantiles(q) }

// Payloads exposes the run's shared payload store.
func (r *Runner) Payloads() *lazy.Payloads { return r.payloads }
