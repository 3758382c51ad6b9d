package strategy

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"emcast/internal/monitor"
	"emcast/internal/peer"
)

// Names is the strategy vocabulary every Spec, sweep, Cluster and Peer
// shares: eager and lazy are Flat at p=1 and p=0, the rest name the
// strategies of §4.1 and §6.4.
var Names = []string{"eager", "lazy", "flat", "ttl", "radius", "ranked", "hybrid"}

// Params selects a transmission strategy and its parameters. The JSON keys
// are the scenario Spec's; zero values mean the defaults Filled applies.
type Params struct {
	// Strategy is one of Names (default eager).
	Strategy string `json:"strategy"`
	// FlatP is flat's eager probability (default 0.5).
	FlatP float64 `json:"flat_p,omitempty"`
	// TTLRounds is ttl's and hybrid's round threshold (default 2).
	TTLRounds int `json:"ttl_rounds,omitempty"`
	// RadiusQuantile positions radius/hybrid's ρ at this quantile of the
	// pairwise metric distribution (default 0.10: the closest 10% of
	// pairs are within the radius).
	RadiusQuantile float64 `json:"radius_quantile,omitempty"`
	// BestFraction sizes the ranked/hybrid best set (default 0.20, the
	// paper's §6.4).
	BestFraction float64 `json:"best_fraction,omitempty"`
	// Noise is the §4.3 noise ratio o in [0, 1]; zero disables the
	// wrapper.
	Noise float64 `json:"noise,omitempty"`
	// GossipRanking takes the ranked/hybrid best set from the
	// decentralized pipeline instead of Knowledge: ping-driven EWMA
	// monitors feed per-node centrality scores spread by the gossip-based
	// ranking protocol (§4.1).
	GossipRanking bool `json:"gossip_ranking,omitempty"`
	// DistanceMetric has the oracle measure plane distance instead of
	// latency (§6.1's pseudo-geographic oracle), and EWMAMonitor takes
	// the radius/hybrid Eager? metric from the run-time ping monitor
	// instead of Knowledge.
	DistanceMetric bool `json:"distance_metric,omitempty"`
	EWMAMonitor    bool `json:"ewma_monitor,omitempty"`
}

// Filled returns p with every default applied. Eager and lazy fix FlatP at
// 1 and 0; flat's zero FlatP means 0.5.
func (p Params) Filled() Params {
	switch p.Strategy {
	case "":
		p.Strategy, p.FlatP = "eager", 1
	case "eager":
		p.FlatP = 1
	case "lazy":
		p.FlatP = 0
	case "flat":
		if p.FlatP <= 0 {
			p.FlatP = 0.5
		}
	}
	if p.TTLRounds <= 0 {
		p.TTLRounds = 2
	}
	if p.RadiusQuantile <= 0 {
		p.RadiusQuantile = 0.10
	}
	if p.BestFraction <= 0 {
		p.BestFraction = 0.20
	}
	return p
}

// Validate checks p as given, before Filled: the name is empty or one of
// Names, and the probabilities and quantiles lie in [0, 1]. Errors name
// the JSON key.
func (p Params) Validate() error {
	if p.Strategy != "" && !slices.Contains(Names, p.Strategy) {
		return fmt.Errorf("unknown strategy %q", p.Strategy)
	}
	for _, f := range []struct {
		key string
		v   float64
	}{
		{"flat_p", p.FlatP}, {"radius_quantile", p.RadiusQuantile}, {"best_fraction", p.BestFraction},
		{"noise", p.Noise},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("%s %v outside [0, 1]", f.key, f.v)
		}
	}
	return nil
}

// UsesKnowledge reports whether New reads its Knowledge argument: radius
// and hybrid always do (ρ and T0), ranked unless its best set comes from
// gossip ranking. The emulator computes its O(n²) oracle only then.
func (p Params) UsesKnowledge() bool {
	switch p.Strategy {
	case "radius", "hybrid":
		return true
	case "ranked":
		return !p.GossipRanking
	}
	return false
}

// Knowledge is what a node knows about the group before it measures
// anything: the emulator's global oracle (§4.3's noise-free case), or a
// real deployment's configuration.
type Knowledge struct {
	// Rho is the radius in Metric's unit; T0 the expected latency within
	// it, which radius and hybrid wait before the first request.
	Rho float64
	T0  time.Duration
	// Metric is the distance between two nodes.
	Metric func(self, to peer.ID) float64
	// IsBest reports whether a node is in the best set.
	IsBest func(peer.ID) bool
}

// New builds node self's strategy from p (defaults applied here). rng is
// the node's strategy stream (peer.StreamStrategy), the one the Flat and
// Noisy coins draw from. mon and best, when non-nil, replace k's metric
// and best set with the node's run-time monitor and ranking table. When
// p.Noise is positive the strategy is wrapped in Noisy, with §4.3's c
// where a closed form exists. p must have passed Validate.
func New(p Params, self peer.ID, rng *rand.Rand, k Knowledge, mon monitor.Monitor, best func(peer.ID) bool) Strategy {
	p = p.Filled()
	if mon == nil && k.Metric != nil {
		mon = monitor.Func(func(to peer.ID) float64 { return k.Metric(self, to) })
	}
	if best == nil {
		best = k.IsBest
	}
	// c is the system-wide probability that Eager? is true, "set such
	// that the overall probability of Eager? returning true is
	// unchanged"; -1 has Noisy fall back to a per-node running estimate.
	var base Strategy
	c := -1.0
	switch p.Strategy {
	case "eager", "lazy", "flat":
		base, c = &Flat{P: p.FlatP, RNG: rng}, p.FlatP
	case "ttl":
		base = &TTL{U: p.TTLRounds}
	case "radius":
		// ρ sits at this quantile of the pairwise metric distribution,
		// so that fraction of (sender, target) pairs is eager.
		base, c = &Radius{Rho: k.Rho, Monitor: mon, T0: k.T0}, p.RadiusQuantile
	case "ranked":
		// Eager iff either endpoint is best.
		base, c = &Ranked{Self: self, IsBest: best}, 1-(1-p.BestFraction)*(1-p.BestFraction)
	case "hybrid":
		base = &Hybrid{Self: self, IsBest: best, Rho: k.Rho, U: p.TTLRounds, Monitor: mon, T0: k.T0}
	default:
		panic(fmt.Sprintf("strategy: unknown strategy %q", p.Strategy))
	}
	if p.Noise > 0 {
		return &Noisy{Base: base, O: p.Noise, RNG: rng, C: c}
	}
	return base
}
