package scenario

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// testSpec is a small, fast base: 30 nodes over a 1/8-size router
// population, Poisson traffic at 2 msg/s.
func testSpec(phases ...Phase) Spec {
	return Spec{
		Name:          "test",
		Seed:          1,
		Nodes:         30,
		Strategy:      "eager",
		TopologyScale: 8,
		Phases:        phases,
	}
}

func poisson(rate float64) []TrafficSpec {
	return []TrafficSpec{{Kind: TrafficPoisson, Rate: rate, Senders: SendersUniform}}
}

func run(t *testing.T, spec Spec) *Report {
	t.Helper()
	e, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSteadyPoissonEndToEnd(t *testing.T) {
	rep := run(t, testSpec(
		Phase{Name: "a", Duration: sec(15), Traffic: poisson(2)},
		Phase{Name: "b", Duration: sec(15), Traffic: poisson(2)},
	))
	if len(rep.Phases) != 2 {
		t.Fatalf("%d phase reports, want 2", len(rep.Phases))
	}
	sum := 0
	for _, p := range rep.Phases {
		if p.Metrics.MessagesSent == 0 {
			t.Fatalf("phase %s sent no messages", p.Name)
		}
		sum += p.Metrics.MessagesSent
	}
	if sum != rep.Overall.MessagesSent {
		t.Fatalf("phases sum to %d messages, overall has %d", sum, rep.Overall.MessagesSent)
	}
	if rep.Overall.DeliveryRate < 0.999 {
		t.Fatalf("eager delivery rate %.3f, want ~1", rep.Overall.DeliveryRate)
	}
	if rep.Overall.MeanLatencyMS <= 0 {
		t.Fatal("no latency measured")
	}
	if rep.Overall.LiveNodes != 30 {
		t.Fatalf("live nodes %d, want 30", rep.Overall.LiveNodes)
	}
	// Phase windows tile the run: phase b starts where a ends.
	if rep.Phases[0].EndMS != rep.Phases[1].StartMS {
		t.Fatalf("phase windows do not tile: %v vs %v", rep.Phases[0].EndMS, rep.Phases[1].StartMS)
	}
}

func TestCrashWaveShrinksOverlay(t *testing.T) {
	spec := testSpec(
		Phase{Name: "steady", Duration: sec(15), Traffic: poisson(2)},
		Phase{
			Name: "crashes", Duration: sec(15), Traffic: poisson(2),
			Churn: []ChurnSpec{{Kind: ChurnCrashWave, Fraction: 0.3, At: sec(2), Over: sec(5)}},
		},
	)
	rep := run(t, spec)
	if rep.Phases[0].Metrics.LiveNodes != 30 {
		t.Fatalf("steady phase live = %d, want 30", rep.Phases[0].Metrics.LiveNodes)
	}
	if got := rep.Phases[1].Metrics.LiveNodes; got != 21 {
		t.Fatalf("post-crash live = %d, want 21", got)
	}
	// Eager push keeps serving the survivors.
	if rep.Phases[1].Metrics.DeliveryRate < 0.9 {
		t.Fatalf("survivor delivery rate %.3f", rep.Phases[1].Metrics.DeliveryRate)
	}
}

func TestLeaveWaveShrinksOverlay(t *testing.T) {
	rep := run(t, testSpec(
		Phase{
			Name: "leaves", Duration: sec(15), Traffic: poisson(2),
			Churn: []ChurnSpec{{Kind: ChurnLeaveWave, Count: 6, At: sec(2), Over: sec(4)}},
		},
	))
	if got := rep.Phases[0].Metrics.LiveNodes; got != 24 {
		t.Fatalf("post-leave live = %d, want 24", got)
	}
}

func TestKillBestTargetsRankingPrefix(t *testing.T) {
	spec := testSpec(
		Phase{
			Name: "targeted", Duration: sec(15), Traffic: poisson(2),
			Churn: []ChurnSpec{{Kind: ChurnKillBest, Count: 5, At: sec(2), Over: sec(5)}},
		},
	)
	e, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Exactly the top 5 of the oracle ranking must be dead.
	for i, id := range e.Runner().RankedNodes() {
		n := int(id)
		failed := e.runner.Failed(n)
		if i < 5 && !failed {
			t.Fatalf("rank-%d node %d survived a kill-best wave", i, n)
		}
		if i >= 5 && failed {
			t.Fatalf("rank-%d node %d died but only the top 5 were targeted", i, n)
		}
	}
}

// TestChurnSparesLastOriginal: crash waves bigger than the original
// population may eat joiners but never the last original node — the
// headline metrics are scoped to originals, so an all-joiner overlay
// would report zero delivery despite disseminating fine.
func TestChurnSparesLastOriginal(t *testing.T) {
	spec := testSpec(
		Phase{
			Name: "grow", Duration: sec(10), Traffic: poisson(2),
			Churn: []ChurnSpec{{Kind: ChurnJoinWave, Count: 10, At: sec(1), Over: sec(4)}},
		},
		Phase{
			Name: "collapse", Duration: sec(20), Traffic: poisson(2),
			Churn: []ChurnSpec{{Kind: ChurnCrashWave, Count: 38, At: sec(1), Over: sec(10)}},
		},
	)
	spec.Nodes = 5
	e, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(e.Runner().Live()); got != 1 {
		t.Fatalf("%d original nodes live after the collapse, want exactly 1 spared", got)
	}
	if rep.Phases[1].Metrics.DeliveryRate <= 0 {
		t.Fatalf("collapse phase delivery %.3f, want > 0 (survivor still measurable)",
			rep.Phases[1].Metrics.DeliveryRate)
	}
}

func TestFlashCrowdJoins(t *testing.T) {
	spec := testSpec(
		Phase{Name: "steady", Duration: sec(10), Traffic: poisson(2)},
		Phase{
			Name: "crowd", Duration: sec(20), Traffic: poisson(2),
			Churn: []ChurnSpec{{Kind: ChurnFlashCrowd, Fraction: 0.5, At: sec(2)}},
		},
	)
	spec.Strategy = "ttl"
	rep := run(t, spec)
	if rep.Joiners != 15 {
		t.Fatalf("Joiners = %d, want 15", rep.Joiners)
	}
	if got := rep.Phases[1].Metrics.LiveNodes; got != 45 {
		t.Fatalf("post-crowd live = %d, want 45", got)
	}
	if rep.Overall.JoinerCoverage < 0.9 {
		t.Fatalf("joiner coverage %.3f, want >= 0.9", rep.Overall.JoinerCoverage)
	}
}

func TestJoinWaveStaggers(t *testing.T) {
	spec := testSpec(
		Phase{
			Name: "wave", Duration: sec(20), Traffic: poisson(2),
			Churn: []ChurnSpec{{Kind: ChurnJoinWave, Count: 6, At: sec(2), Over: sec(12)}},
		},
	)
	e, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Join times must be spread, not clustered at one instant.
	var first, last time.Duration
	for i := 30; i < 36; i++ {
		at, ok := e.runner.JoinedAt(i)
		if !ok {
			t.Fatalf("joiner %d never joined", i)
		}
		if first == 0 || at < first {
			first = at
		}
		if at > last {
			last = at
		}
	}
	if last-first < 8*time.Second {
		t.Fatalf("join wave spread only %v, want ~10s", last-first)
	}
}

func TestPartitionHalvesThenHeals(t *testing.T) {
	spec := testSpec(
		Phase{Name: "steady", Duration: sec(12), Traffic: poisson(2)},
		Phase{
			Name: "partitioned", Duration: sec(15), Traffic: poisson(2),
			Network: []NetEvent{{Kind: NetPartition, Split: 0.5}},
		},
		Phase{
			Name: "healed", Duration: sec(15), Traffic: poisson(2),
			Network: []NetEvent{{Kind: NetHeal}},
		},
	)
	eng, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	pre, mid, post := rep.Phases[0].Metrics, rep.Phases[1].Metrics, rep.Phases[2].Metrics
	if pre.DeliveryRate < 0.999 {
		t.Fatalf("pre-partition delivery %.3f", pre.DeliveryRate)
	}
	if mid.DeliveryRate < 0.35 || mid.DeliveryRate > 0.75 {
		t.Fatalf("partitioned delivery %.3f, want ~0.5 (side-bound)", mid.DeliveryRate)
	}
	if post.DeliveryRate < 0.999 {
		t.Fatalf("healed delivery %.3f, want ~1", post.DeliveryRate)
	}
	// A message multicast in the last moments of the partition may still
	// reach both sides once it heals (lazy requests retry across the
	// heal); one sent more than a second before it must stay on its side.
	cutMS, healMS := rep.Phases[1].StartMS, rep.Phases[2].StartMS
	judged := 0
	for _, m := range eng.Runner().MessageStats() {
		sentMS := float64(m.SentAt) / float64(time.Millisecond)
		if sentMS < cutMS || sentMS >= healMS-1000 {
			continue
		}
		judged++
		if m.Deliveries >= spec.Nodes {
			t.Fatalf("message sent at %.0f ms, partitioned from %.0f to %.0f ms, reached all %d nodes", sentMS, cutMS, healMS, spec.Nodes)
		}
	}
	if judged == 0 {
		t.Fatal("no message was multicast during the partition")
	}
}

func TestLatencyInflation(t *testing.T) {
	spec := testSpec(
		Phase{Name: "base", Duration: sec(15), Traffic: poisson(2)},
		Phase{
			Name: "inflated", Duration: sec(15), Traffic: poisson(2),
			Network: []NetEvent{{Kind: NetLatencyFactor, Factor: 3}},
		},
	)
	rep := run(t, spec)
	base, inflated := rep.Phases[0].Metrics.MeanLatencyMS, rep.Phases[1].Metrics.MeanLatencyMS
	if inflated < 2*base {
		t.Fatalf("latency %0.f → %.0f ms under 3x inflation, want >= 2x", base, inflated)
	}
}

func TestLossSpikeCountsLostFrames(t *testing.T) {
	spec := testSpec(
		Phase{Name: "clean", Duration: sec(10), Traffic: poisson(2)},
		Phase{
			Name: "lossy", Duration: sec(10), Traffic: poisson(2),
			Network: []NetEvent{{Kind: NetLoss, Loss: 0.2}},
		},
	)
	rep := run(t, spec)
	if rep.Phases[0].Metrics.FramesLost != 0 {
		t.Fatalf("clean phase lost %d frames", rep.Phases[0].Metrics.FramesLost)
	}
	lossy := rep.Phases[1].Metrics
	if lossy.FramesLost == 0 {
		t.Fatal("lossy phase lost no frames")
	}
	frac := float64(lossy.FramesLost) / float64(lossy.FramesSent)
	if frac < 0.1 || frac > 0.3 {
		t.Fatalf("lossy phase dropped %.2f of frames, want ~0.2", frac)
	}
}

func TestMixedLoadCarriesLargePayloads(t *testing.T) {
	small := testSpec(Phase{Name: "small", Duration: sec(15), Traffic: poisson(2)})
	mixed := testSpec(Phase{
		Name: "mixed", Duration: sec(15),
		Traffic: []TrafficSpec{
			{Kind: TrafficPoisson, Rate: 2, Senders: SendersUniform},
			{Kind: TrafficConstant, Rate: 0.5, PayloadSize: 16 << 10, PayloadMax: 32 << 10},
		},
	})
	repSmall, repMixed := run(t, small), run(t, mixed)
	if repMixed.Overall.MessagesSent <= repSmall.Overall.MessagesSent {
		t.Fatal("second stream added no messages")
	}
	if repMixed.Overall.PayloadBytes < 4*repSmall.Overall.PayloadBytes {
		t.Fatalf("large stream moved too few bytes: %d vs %d",
			repMixed.Overall.PayloadBytes, repSmall.Overall.PayloadBytes)
	}
	if repMixed.Overall.DeliveryRate < 0.999 {
		t.Fatalf("mixed-load delivery %.3f", repMixed.Overall.DeliveryRate)
	}
}

func TestDeadFixedSenderSkips(t *testing.T) {
	// A single fixed sender that kill-best removes 1 s into the phase:
	// every later scheduled message must be skipped, not remapped. The
	// best-ranked node is the one deterministic kill target, so probe it
	// first and pin the stream to it.
	probe, err := New(testSpec(Phase{Name: "probe", Duration: sec(1), Traffic: poisson(1)}))
	if err != nil {
		t.Fatal(err)
	}
	best := int(probe.Runner().RankedNodes()[0])
	spec := testSpec(
		Phase{
			Name: "hotspot-dies", Duration: sec(15),
			Traffic: []TrafficSpec{{
				Kind: TrafficConstant, Rate: 2,
				Senders: SendersFixed, FixedSenders: []int{best},
			}},
			Churn: []ChurnSpec{{Kind: ChurnKillBest, Count: 1, At: sec(1)}},
		},
	)
	rep := run(t, spec)
	if rep.Overall.SkippedSends == 0 {
		t.Fatal("dead fixed sender produced no skips")
	}
	// One message fits before the 1 s kill; the other ~28 are skipped.
	if rep.Overall.MessagesSent > 4 {
		t.Fatalf("dead sender still sent %d messages", rep.Overall.MessagesSent)
	}
	if rep.Overall.MessagesSent+rep.Overall.SkippedSends != 29 {
		t.Fatalf("sent %d + skipped %d != 29 scheduled",
			rep.Overall.MessagesSent, rep.Overall.SkippedSends)
	}
}

func TestDeterministicReports(t *testing.T) {
	spec := testSpec(
		Phase{Name: "steady", Duration: sec(10), Traffic: poisson(2)},
		Phase{
			Name: "chaos", Duration: sec(15), Traffic: poisson(2),
			Churn:   []ChurnSpec{{Kind: ChurnCrashWave, Count: 4, At: sec(2), Over: sec(5)}},
			Network: []NetEvent{{At: sec(8), Kind: NetLatencyFactor, Factor: 2}},
		},
	)
	a, b := run(t, spec), run(t, spec)
	ja, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same spec produced different reports:\n%s\n--- vs ---\n%s", ja, jb)
	}
	// A different seed must actually change the run.
	spec.Seed = 2
	jc, err := run(t, spec).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ja, jc) {
		t.Fatal("different seeds produced identical reports")
	}
}

func TestEngineRunsOnce(t *testing.T) {
	e, err := New(testSpec(Phase{Name: "p", Duration: sec(5), Traffic: poisson(1)}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("second Run did not error")
	}
}

func TestNewRejectsInvalidSpec(t *testing.T) {
	if _, err := New(Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := New(Spec{Strategy: "warp", Phases: []Phase{{Duration: sec(1)}}}); err == nil {
		t.Fatal("bad strategy accepted")
	}
	// Strategy parameters outside [0, 1] used to run as something else
	// (flat_p 5 as pure eager, a negative one as 0.5, the others clamped).
	for _, c := range []struct {
		key  string
		spec Spec
	}{
		{"flat_p", Spec{Strategy: "flat", FlatP: 5}},
		{"flat_p", Spec{Strategy: "flat", FlatP: -0.1}},
		{"radius_quantile", Spec{Strategy: "radius", RadiusQuantile: 1.5}},
		{"best_fraction", Spec{Strategy: "ranked", BestFraction: 2}},
	} {
		c.spec.Phases = []Phase{{Duration: sec(1)}}
		if _, err := New(c.spec); err == nil || !strings.Contains(err.Error(), c.key) {
			t.Errorf("%s out of range: err = %v, want an error naming the key", c.key, err)
		}
	}
}
