package sim_test

import (
	"testing"
	"time"

	"emcast/internal/peer"
	"emcast/internal/scenario"
	"emcast/internal/sim"
	"emcast/internal/strategy"
)

// TestRankedConcentratesOnHubs: best nodes must carry far more payload per
// message than regular ones (paper §6.4: hubs ~10.8, regular ~1.2).
func TestRankedConcentratesOnHubs(t *testing.T) {
	r, res := play(t, testSpec(50, 60, "ranked"))
	if low, best := r.PayloadSplit(); best < 3*low {
		t.Fatalf("hubs %.2f vs low %.2f: no concentration", best, low)
	}
	if res.DeliveryRate < 0.99 {
		t.Fatalf("delivery rate %.3f", res.DeliveryRate)
	}
}

// TestRankedBeatsFlatTradeoff: at comparable traffic, Ranked must deliver
// lower latency than Flat (the paper's §6.2 headline).
func TestRankedBeatsFlatTradeoff(t *testing.T) {
	_, rr := play(t, testSpec(60, 60, "ranked"))

	// A flat configuration producing comparable traffic.
	flat := testSpec(60, 60, "flat")
	flat.FlatP = rr.PayloadPerMsg / 11
	_, rf := play(t, flat)

	if rf.PayloadPerMsg < rr.PayloadPerMsg*0.85 || rf.PayloadPerMsg > rr.PayloadPerMsg*1.15 {
		t.Skipf("flat calibration off: flat %.2f vs ranked %.2f", rf.PayloadPerMsg, rr.PayloadPerMsg)
	}
	if rr.MeanLatencyMS >= rf.MeanLatencyMS {
		t.Fatalf("ranked %.1fms not faster than flat %.1fms at similar traffic (%.2f vs %.2f payloads)",
			rr.MeanLatencyMS, rf.MeanLatencyMS, rr.PayloadPerMsg, rf.PayloadPerMsg)
	}
}

// TestLossRecoveredByRetries: lazy push must survive frame loss through
// periodic retransmission requests (the paper's reliability argument for
// keeping redundant lazy advertisements).
func TestLossRecoveredByRetries(t *testing.T) {
	spec := testSpec(40, 40, "ttl")
	spec.Loss = 0.05
	spec.Drain = scenario.Duration(30 * time.Second)
	_, res := play(t, spec)
	if res.DeliveryRate < 0.97 {
		t.Fatalf("delivery rate %.3f with 5%% loss, want >= 0.97", res.DeliveryRate)
	}
}

// TestGossipRankingStructure: the fully decentralized ranking pipeline
// (EWMA monitors + gossip-based score spreading) must still produce an
// emergent hub structure under the Ranked strategy, with only modest
// degradation from the oracle ranking — the paper's §4.1/§6.5 claim that
// approximate rankings suffice.
func TestGossipRankingStructure(t *testing.T) {
	_, ro := play(t, testSpec(60, 60, "ranked"))

	gossip := testSpec(60, 60, "ranked")
	gossip.GossipRanking = true
	r, rg := play(t, gossip)

	if rg.DeliveryRate < 0.99 {
		t.Fatalf("gossip ranking broke delivery: %.3f", rg.DeliveryRate)
	}
	// Structure still emerges: clearly above the unstructured baseline
	// (~10-14% for the scaled setup) even if below the oracle's.
	if rg.Top5LinkShare < 0.7*ro.Top5LinkShare {
		t.Fatalf("gossip ranking structure %.1f%% too far below oracle %.1f%%",
			100*rg.Top5LinkShare, 100*ro.Top5LinkShare)
	}
	// The oracle-best nodes must still carry disproportionate payload:
	// the approximate ranking found genuinely central nodes.
	if low, best := r.PayloadSplit(); best < 1.3*low {
		t.Fatalf("approximate ranking lost hub concentration: best %.2f vs low %.2f", best, low)
	}
}

// TestEWMAMonitorViable: the run-time ping-driven monitor must support the
// Radius strategy end to end (paper §4.2's deployable monitor).
func TestEWMAMonitorViable(t *testing.T) {
	spec := testSpec(40, 40, "radius")
	spec.EWMAMonitor = true
	spec.Drain = scenario.Duration(30 * time.Second)
	_, res := play(t, spec)
	if res.DeliveryRate < 0.99 {
		t.Fatalf("delivery rate %.3f with EWMA monitor", res.DeliveryRate)
	}
	if res.PayloadPerMsg >= 11 {
		t.Fatalf("EWMA radius degenerated to eager: %.2f payloads/msg", res.PayloadPerMsg)
	}
}

func TestDistanceMetricMode(t *testing.T) {
	spec := testSpec(40, 30, "radius")
	spec.DistanceMetric = true
	_, res := play(t, spec)
	if res.DeliveryRate < 0.99 {
		t.Fatalf("delivery rate %.3f in distance-metric mode", res.DeliveryRate)
	}
	if res.Top5LinkShare < 0.10 {
		t.Fatalf("distance radius produced no structure: %.3f", res.Top5LinkShare)
	}
}

func TestNoisePreservesDelivery(t *testing.T) {
	for _, noise := range []float64{0.5, 1.0} {
		spec := testSpec(40, 30, "ranked")
		spec.Noise = noise
		_, res := play(t, spec)
		if res.DeliveryRate < 0.99 {
			t.Fatalf("noise %.1f broke delivery: %.3f", noise, res.DeliveryRate)
		}
	}
}

// TestNoisyHybridUsesRunningEstimate: Hybrid has no closed-form global
// eager rate, so the noise wrapper must fall back to the per-node running
// estimate and still deliver (covers the estimator path end to end).
func TestNoisyHybridUsesRunningEstimate(t *testing.T) {
	spec := testSpec(40, 30, "hybrid")
	spec.Noise = 0.75
	_, res := play(t, spec)
	if res.DeliveryRate < 0.99 {
		t.Fatalf("noisy hybrid delivery %.3f", res.DeliveryRate)
	}
	if res.PayloadPerMsg <= 1 || res.PayloadPerMsg >= 11 {
		t.Fatalf("noisy hybrid payload/msg %.2f outside (1, 11)", res.PayloadPerMsg)
	}
}

// TestLossWithFailures combines frame loss with node failures: the paper's
// reliability argument must hold under both at once.
func TestLossWithFailures(t *testing.T) {
	spec := killBestFirst(testSpec(40, 40, "ranked"), 0.2)
	spec.Loss = 0.03
	spec.Drain = scenario.Duration(30 * time.Second)
	_, res := play(t, spec)
	if res.DeliveryRate < 0.97 {
		t.Fatalf("delivery %.3f with loss + best-node failures", res.DeliveryRate)
	}
}

func TestLinkLoads(t *testing.T) {
	r, res := play(t, testSpec(30, 20, "eager"))
	loads := r.LinkLoads()
	if len(loads) == 0 {
		t.Fatal("no link loads recorded")
	}
	total := 0
	for _, l := range loads {
		if l.A >= l.B {
			t.Fatalf("link %v not normalised", l)
		}
		if l.Payloads <= 0 || l.Bytes <= 0 {
			t.Fatalf("empty link recorded: %+v", l)
		}
		total += l.Payloads
	}
	if total != res.EagerPayloads+res.LazyPayloads {
		t.Fatalf("link payloads %d != total payloads %d", total, res.EagerPayloads+res.LazyPayloads)
	}
}

func TestManualDrive(t *testing.T) {
	r := sim.New(testConfig(20))
	r.Warmup()
	id := r.MulticastFrom(3, []byte("manual"))
	r.RunFor(10 * time.Second)
	for i, n := range r.Nodes() {
		if !n.Delivered(id) {
			t.Fatalf("node %d missing manual multicast", i)
		}
	}
	res := scenario.Measure(r)
	if res.MessagesSent != 1 || res.Deliveries != 20 {
		t.Fatalf("metrics = %+v", res)
	}
}

// TestLeaveSilencesNode: a departed node stops delivering and is removed
// from the delivery-rate denominator.
func TestLeaveSilencesNode(t *testing.T) {
	r := sim.New(testConfig(30))
	r.Warmup()
	r.Leave(3)
	if !r.Failed(3) {
		t.Fatal("Failed(3) = false after Leave")
	}
	for _, n := range r.Live() {
		if n == 3 {
			t.Fatal("departed node still listed live")
		}
	}
	r.MulticastFrom(0, []byte("after leave"))
	r.RunFor(10 * time.Second)
	if res := scenario.Measure(r); res.DeliveryRate < 0.999 {
		t.Fatalf("delivery rate %.3f among remaining nodes, want ~1", res.DeliveryRate)
	}
	for _, m := range r.MessageStats() {
		if m.DeliveredBy(peer.ID(3)) {
			t.Fatal("departed node delivered a message")
		}
	}
}

// TestRankedNodesOrder: the ranking must cover all nodes, best-first, and
// its prefix must coincide with the oracle best set.
func TestRankedNodesOrder(t *testing.T) {
	cfg := testConfig(30)
	cfg.BestFraction = 0.2
	r := sim.New(cfg)
	ranked := r.RankedNodes()
	if len(ranked) != cfg.Nodes {
		t.Fatalf("ranking covers %d nodes, want %d", len(ranked), cfg.Nodes)
	}
	k := int(cfg.BestFraction * float64(cfg.Nodes))
	for _, id := range ranked[:k] {
		if !r.Best(id) {
			t.Fatalf("node %d in ranking prefix but not in best set", id)
		}
	}
	for _, id := range ranked[k:] {
		if r.Best(id) {
			t.Fatalf("node %d outside ranking prefix but in best set", id)
		}
	}
}

// TestManualJoinIntegrates: a joiner driven through Runner.Join (the
// scenario-engine path) must integrate and deliver subsequent messages.
func TestManualJoinIntegrates(t *testing.T) {
	cfg := testConfig(30)
	cfg.LateJoiners = 1
	r := sim.New(cfg)
	r.Warmup()
	joiner := cfg.Nodes
	r.Join(joiner, 0)
	if _, ok := r.JoinedAt(joiner); !ok {
		t.Fatal("join time not recorded")
	}
	r.RunFor(10 * time.Second)
	id := r.MulticastFrom(1, []byte("post-join"))
	r.RunFor(10 * time.Second)
	if !r.Nodes()[joiner].Delivered(id) {
		t.Fatal("joiner missed a message multicast after it joined")
	}
}

// TestStrategyKindString pins the strategy vocabulary: every name in
// strategy.Names validates, no name appears twice, and an unknown one is
// refused.
func TestStrategyKindString(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range strategy.Names {
		if err := (strategy.Params{Strategy: name}).Validate(); err != nil || seen[name] {
			t.Fatalf("name %q: err = %v, seen before = %v", name, err, seen[name])
		}
		seen[name] = true
	}
	if err := (strategy.Params{Strategy: "nosuch"}).Validate(); err == nil {
		t.Fatal("unknown strategy name accepted")
	}
}

// TestFlatRunSkipsOracle: strategies that read no strategy.Knowledge —
// flat, ttl and gossip-ranked ranked — build and run without the O(n²)
// oracle; radius builds with it.
func TestFlatRunSkipsOracle(t *testing.T) {
	for _, c := range []struct {
		p      strategy.Params
		oracle bool
	}{
		{strategy.Params{Strategy: "flat"}, false},
		{strategy.Params{Strategy: "ttl"}, false},
		{strategy.Params{Strategy: "ranked", GossipRanking: true}, false},
		{strategy.Params{Strategy: "radius"}, true},
	} {
		cfg := testConfig(30)
		cfg.Params = c.p
		r := sim.New(cfg)
		r.Warmup()
		r.MulticastFrom(0, []byte("m"))
		r.RunFor(5 * time.Second)
		if r.OracleDone() != c.oracle {
			t.Errorf("%+v: oracle computed = %v, want %v", c.p, r.OracleDone(), c.oracle)
		}
	}
}

// TestDefaultConfigFlatIsHalf: a DefaultConfig that only names flat runs
// flat's default p = 0.5, as a flat Spec or Cluster does, not pure eager.
func TestDefaultConfigFlatIsHalf(t *testing.T) {
	cfg := testConfig(30)
	cfg.Strategy = "flat"
	r := sim.New(cfg)
	r.Warmup()
	for i := 0; i < 10; i++ {
		r.MulticastFrom(i, []byte("m"))
	}
	r.RunFor(5 * time.Second)
	if cp := r.Checkpoint(); cp.EagerPayloads == 0 || cp.LazyPayloads == 0 {
		t.Fatalf("flat run sent %d eager and %d lazy payloads, want both", cp.EagerPayloads, cp.LazyPayloads)
	}
}

// TestSymmetricGraphProperties checks the warm-overlay constructor.
func TestSymmetricGraphProperties(t *testing.T) {
	for i, n := range sim.New(testConfig(30)).Nodes() {
		view := n.View()
		if len(view) == 0 {
			t.Fatalf("node %d has empty view", i)
		}
		if len(view) > 15 {
			t.Fatalf("node %d view size %d > 15", i, len(view))
		}
		for _, p := range view {
			if int(p) == i {
				t.Fatalf("node %d has itself in view", i)
			}
		}
	}
}
