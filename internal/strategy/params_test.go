package strategy

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"emcast/internal/monitor"
	"emcast/internal/peer"
)

// TestNewBuildsEachName: every name of the vocabulary builds its strategy
// type with the parameters and Knowledge it was given, or the defaults;
// with noise it is wrapped in Noisy with §4.3's c where a closed form
// exists (p, q, 1−(1−β)²) and −1 (a running estimate) where none does.
func TestNewBuildsEachName(t *testing.T) {
	const self = peer.ID(3)
	beta := 0.2 // the default best fraction, in float64 arithmetic as New does it
	rng := rand.New(rand.NewSource(1))
	k := Knowledge{
		Rho:    7,
		T0:     3 * time.Millisecond,
		Metric: func(a, b peer.ID) float64 { return float64(10*a + b) },
		IsBest: func(p peer.ID) bool { return p == 5 },
	}
	cases := []struct {
		p     Params
		check func(s Strategy) bool
		c     float64
	}{
		{Params{Strategy: "eager", FlatP: 0.3}, func(s Strategy) bool {
			f, ok := s.(*Flat)
			return ok && f.P == 1 && f.RNG == rng
		}, 1},
		{Params{Strategy: "lazy", FlatP: 0.3}, func(s Strategy) bool {
			f, ok := s.(*Flat)
			return ok && f.P == 0
		}, 0},
		{Params{Strategy: "flat"}, func(s Strategy) bool {
			f, ok := s.(*Flat)
			return ok && f.P == 0.5 && f.RNG == rng
		}, 0.5},
		{Params{Strategy: "flat", FlatP: 0.3}, func(s Strategy) bool {
			f, ok := s.(*Flat)
			return ok && f.P == 0.3
		}, 0.3},
		{Params{Strategy: "ttl", TTLRounds: 4}, func(s Strategy) bool {
			u, ok := s.(*TTL)
			return ok && u.U == 4
		}, -1},
		{Params{Strategy: "radius", RadiusQuantile: 0.25}, func(s Strategy) bool {
			r, ok := s.(*Radius)
			return ok && r.Rho == 7 && r.T0 == 3*time.Millisecond && r.Monitor.Metric(4) == 34
		}, 0.25},
		{Params{Strategy: "ranked"}, func(s Strategy) bool {
			r, ok := s.(*Ranked)
			return ok && r.Self == self && r.IsBest(5) && !r.IsBest(self)
		}, 1 - (1-beta)*(1-beta)},
		{Params{Strategy: "hybrid"}, func(s Strategy) bool {
			h, ok := s.(*Hybrid)
			return ok && h.Self == self && h.Rho == 7 && h.U == 2 && h.T0 == 3*time.Millisecond &&
				h.IsBest(5) && h.Monitor.Metric(6) == 36
		}, -1},
	}
	for _, c := range cases {
		if s := New(c.p, self, rng, k, nil, nil); !c.check(s) {
			t.Errorf("%+v built %#v", c.p, s)
		}
		noisy := c.p
		noisy.Noise = 0.5
		n, ok := New(noisy, self, rng, k, nil, nil).(*Noisy)
		if !ok || !c.check(n.Base) || n.O != 0.5 || n.RNG != rng || n.C != c.c {
			t.Errorf("%+v with noise built %#v, want Noisy with c=%v", c.p, n, c.c)
		}
	}
}

// TestNewOverridesKnowledge: a run-time monitor and best set replace
// Knowledge's, and the strategies that need neither — flat, ttl and
// gossip-ranked ranked — build and decide from a zero Knowledge.
func TestNewOverridesKnowledge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mon := monitor.Func(func(p peer.ID) float64 { return float64(p) })
	best := func(p peer.ID) bool { return p == 2 }
	k := Knowledge{Rho: 5, Metric: func(peer.ID, peer.ID) float64 { return 0 }, IsBest: func(peer.ID) bool { return false }}
	if r := New(Params{Strategy: "radius"}, 1, rng, k, mon, nil).(*Radius); r.Eager(anyID, 0, 9) || !r.Eager(anyID, 0, 4) {
		t.Error("radius ignored the run-time monitor")
	}
	if r := New(Params{Strategy: "ranked"}, 1, rng, k, nil, best).(*Ranked); !r.Eager(anyID, 0, 2) {
		t.Error("ranked ignored the run-time best set")
	}
	for _, p := range []Params{{Strategy: "flat"}, {Strategy: "ttl"}, {Strategy: "ranked", GossipRanking: true}} {
		if p.UsesKnowledge() {
			t.Errorf("%+v claims to use Knowledge", p)
		}
		New(p, 1, rng, Knowledge{}, nil, best).Eager(anyID, 0, 2)
	}
	for _, p := range []Params{{Strategy: "radius"}, {Strategy: "hybrid", GossipRanking: true}, {Strategy: "ranked"}} {
		if !p.UsesKnowledge() {
			t.Errorf("%+v claims not to use Knowledge", p)
		}
	}
}

// TestParamsValidateAndFill: Validate judges the values as given, so a
// negative flat_p is an error rather than the 0.5 Filled would make of it;
// the zero Params is valid and fills to eager with every default.
func TestParamsValidateAndFill(t *testing.T) {
	for _, c := range []struct {
		p    Params
		want string
	}{
		{Params{Strategy: "warp"}, "unknown strategy"},
		{Params{Strategy: "flat", FlatP: -0.1}, "flat_p"},
		{Params{Strategy: "flat", FlatP: 5}, "flat_p"},
		{Params{Strategy: "radius", RadiusQuantile: 1.5}, "radius_quantile"},
		{Params{Strategy: "ranked", BestFraction: 2}, "best_fraction"},
		{Params{Noise: -1}, "noise"},
	} {
		if err := c.p.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: err = %v, want one naming %s", c.p, err, c.want)
		}
	}
	if err := (Params{}).Validate(); err != nil {
		t.Fatalf("zero Params rejected: %v", err)
	}
	want := Params{Strategy: "eager", FlatP: 1, TTLRounds: 2, RadiusQuantile: 0.10, BestFraction: 0.20}
	if got := (Params{}).Filled(); got != want {
		t.Fatalf("Filled() = %+v, want %+v", got, want)
	}
	if got := want.Filled(); got != want {
		t.Fatalf("Filled is not idempotent: %+v", got)
	}
}
