package sim_test

import (
	"testing"
	"time"

	"emcast/internal/scenario"
	"emcast/internal/sim"
	"emcast/internal/topology"
)

// testConfig returns a fast, scaled-down configuration for tests that
// drive a Runner by hand.
func testConfig(nodes int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Nodes = nodes
	tp := topology.DefaultParams().Scaled(8)
	cfg.Topology = &tp
	return cfg
}

// testSpec is the same deployment as a workload: exactly messages
// multicasts 500 ms apart from round-robin senders (the paper's §5.3
// traffic with the interval fixed, so counts are exact).
func testSpec(nodes, messages int, strategy string) scenario.Spec {
	return scenario.Spec{
		Nodes:         nodes,
		Strategy:      strategy,
		TopologyScale: 8,
		Phases: []scenario.Phase{{
			Duration: scenario.Duration(time.Duration(messages+1) * 500 * time.Millisecond),
			Traffic:  []scenario.TrafficSpec{{Kind: scenario.TrafficConstant, Rate: 2}},
		}},
	}
}

// killBestFirst prepends a silent second in which frac of the nodes are
// silenced best-ranked first, before any traffic (paper §6.3).
func killBestFirst(spec scenario.Spec, frac float64) scenario.Spec {
	spec.Phases = append([]scenario.Phase{{
		Duration: scenario.Duration(time.Second),
		Churn:    []scenario.ChurnSpec{{Kind: scenario.ChurnKillBest, Fraction: frac}},
	}}, spec.Phases...)
	return spec
}

// play runs spec through scenario.Player and returns the runner under the
// engine with the Report's whole-run metrics.
func play(t *testing.T, spec scenario.Spec) (*sim.Runner, scenario.Metrics) {
	t.Helper()
	eng, err := scenario.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return eng.Runner(), rep.Overall
}

// TestEagerAtomicDelivery: with pure eager push and no loss, every message
// must reach every node (paper §6.3 baseline: "when no node fails one
// observes perfect atomic delivery of all messages").
func TestEagerAtomicDelivery(t *testing.T) {
	_, res := play(t, testSpec(50, 40, "eager"))
	t.Logf("%+v", res)
	if res.AtomicRate != 1.0 {
		t.Fatalf("atomic rate = %.3f, want 1.0", res.AtomicRate)
	}
	if res.DeliveryRate != 1.0 {
		t.Fatalf("delivery rate = %.3f, want 1.0", res.DeliveryRate)
	}
	// Eager push transmits roughly fanout payloads per delivery.
	if res.PayloadPerMsg < 5 || res.PayloadPerMsg > 12 {
		t.Errorf("payload/msg = %.2f, want ~fanout (11)", res.PayloadPerMsg)
	}
	if res.LazyPayloads != 0 {
		t.Errorf("pure eager run produced %d lazy payloads", res.LazyPayloads)
	}
}

// TestLazySinglePayload: with pure lazy push, each node should receive
// close to exactly one payload per message (paper §6.2: "the optimal 1").
func TestLazySinglePayload(t *testing.T) {
	spec := testSpec(50, 40, "lazy")
	spec.Drain = scenario.Duration(20 * time.Second)
	_, res := play(t, spec)
	t.Logf("%+v", res)
	if res.DeliveryRate < 0.99 {
		t.Fatalf("delivery rate = %.3f, want >= 0.99", res.DeliveryRate)
	}
	if res.PayloadPerMsg < 0.99 || res.PayloadPerMsg > 1.5 {
		t.Errorf("payload/msg = %.2f, want ~1 (pure lazy)", res.PayloadPerMsg)
	}
	if res.EagerPayloads != 0 {
		t.Errorf("pure lazy run produced %d eager payloads", res.EagerPayloads)
	}
}

// TestLazySlowerThanEager: lazy push must pay latency for its bandwidth
// savings (the paper's central trade-off, Fig. 5(a): 227 ms eager vs 480 ms
// lazy).
func TestLazySlowerThanEager(t *testing.T) {
	lazy := testSpec(50, 40, "lazy")
	lazy.Drain = scenario.Duration(20 * time.Second)

	_, re := play(t, testSpec(50, 40, "eager"))
	_, rl := play(t, lazy)
	t.Logf("eager=%.1fms lazy=%.1fms", re.MeanLatencyMS, rl.MeanLatencyMS)
	if rl.MeanLatencyMS <= re.MeanLatencyMS {
		t.Fatalf("lazy latency %.1fms not above eager %.1fms", rl.MeanLatencyMS, re.MeanLatencyMS)
	}
	if rl.PayloadPerMsg >= re.PayloadPerMsg {
		t.Fatalf("lazy payload/msg %.2f not below eager %.2f", rl.PayloadPerMsg, re.PayloadPerMsg)
	}
}

func TestDeterministicRuns(t *testing.T) {
	for _, strategy := range []string{"flat", "ttl", "radius", "ranked", "hybrid"} {
		strategy := strategy
		t.Run(strategy, func(t *testing.T) {
			spec := testSpec(30, 20, strategy)
			_, a := play(t, spec)
			_, b := play(t, spec)
			if a != b {
				t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
			}
			spec.Seed = 99
			_, c := play(t, spec)
			if a.MeanLatencyMS == c.MeanLatencyMS && a.Top5LinkShare == c.Top5LinkShare {
				t.Fatal("different seeds produced identical results")
			}
		})
	}
}
