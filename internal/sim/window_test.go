package sim_test

import (
	"math"
	"testing"
	"time"

	"emcast/internal/peer"
	"emcast/internal/sim"
	"emcast/internal/trace"
)

// TestCollectWindowPartitionsRun: splitting a run into two windows at any
// boundary must partition the messages, and each window's metrics must
// reflect only its own messages.
func TestCollectWindowPartitionsRun(t *testing.T) {
	r, full := play(t, testSpec(30, 40, "eager"))
	if full.MessagesSent != 40 {
		t.Fatalf("MessagesSent = %d, want 40", full.MessagesSent)
	}

	mid := full.Elapsed / 2
	a := r.CollectWindow(0, mid)
	b := r.CollectWindow(mid, full.Elapsed+time.Hour)
	if a.MessagesSent+b.MessagesSent != full.MessagesSent {
		t.Fatalf("windows cover %d+%d messages, want %d",
			a.MessagesSent, b.MessagesSent, full.MessagesSent)
	}
	if a.Deliveries+b.Deliveries != full.Deliveries {
		t.Fatalf("windows cover %d+%d deliveries, want %d",
			a.Deliveries, b.Deliveries, full.Deliveries)
	}
	if a.MessagesSent == 0 || b.MessagesSent == 0 {
		t.Fatalf("degenerate split: %d and %d messages", a.MessagesSent, b.MessagesSent)
	}
	// Pure eager push delivers atomically in each window too.
	if a.DeliveryRate < 0.999 || b.DeliveryRate < 0.999 {
		t.Fatalf("window delivery rates %.3f / %.3f, want ~1", a.DeliveryRate, b.DeliveryRate)
	}
	// Per-message payload attribution must add up to the global counter.
	cp := r.Checkpoint()
	sum := 0
	for _, m := range r.MessageStats() {
		sum += m.Payloads
	}
	if sum != cp.TotalPayloads {
		t.Fatalf("per-message payloads sum to %d, total is %d", sum, cp.TotalPayloads)
	}
}

// TestCollectWindowEmpty: a window with no messages yields zero metrics.
func TestCollectWindowEmpty(t *testing.T) {
	r, _ := play(t, testSpec(20, 10, "eager"))
	res := r.CollectWindow(0, time.Nanosecond)
	if res.MessagesSent != 0 || res.Deliveries != 0 || res.DeliveryRate != 0 {
		t.Fatalf("empty window yielded %+v", res)
	}
}

// TestLinkTopShareDiff: the boundary-snapshot diff over the full run must
// match the whole-run metric, and a diff between identical snapshots must
// be zero.
func TestLinkTopShareDiff(t *testing.T) {
	r, full := play(t, testSpec(30, 30, "ranked"))
	cp := r.Checkpoint()
	if got := sim.LinkTopShare(trace.Checkpoint{}, cp, 0.05); math.Abs(got-full.Top5Share) > 1e-12 {
		t.Fatalf("LinkTopShare from start = %v, run reports %v", got, full.Top5Share)
	}
	if got := sim.LinkTopShare(cp, cp, 0.05); got != 0 {
		t.Fatalf("LinkTopShare of empty diff = %v, want 0", got)
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
	res := r.Result()
	if res.DeliveryRate < 0.999 {
		t.Fatalf("delivery rate %.3f among remaining nodes, want ~1", res.DeliveryRate)
	}
	for _, m := range r.MessageStats() {
		if m.DeliveredBy(peer.ID(3)) {
			t.Fatal("departed node delivered a message")
		}
	}
}

// TestStreamingWindowEquivalence drives the same manually-scripted run —
// warm-up, a crash mid-traffic, a marked recovery window — under the
// default streaming trace and under a full trace, and requires Result,
// CollectWindow and RecoveryTime to agree exactly. This is the sim-level
// pin behind the scenario-level byte-identical report equivalence.
func TestStreamingWindowEquivalence(t *testing.T) {
	type outcome struct {
		full, windowA, windowB sim.Result
		rec                    time.Duration
		recovered, measured    bool
	}
	drive := func(fullTrace bool) outcome {
		cfg := testConfig(30)
		cfg.FullTrace = fullTrace
		r := sim.New(cfg)
		r.Warmup()
		event := r.Network().Now()
		r.MarkRecovery(event, event+time.Hour)
		for i := 0; i < 6; i++ {
			r.MulticastFrom(i, []byte("pre-crash"))
			r.RunFor(500 * time.Millisecond)
		}
		mid := r.Network().Now()
		r.Fail(3)
		r.Fail(7)
		for i := 0; i < 6; i++ {
			r.MulticastFrom(10+i, []byte("post-crash"))
			r.RunFor(500 * time.Millisecond)
		}
		r.RunFor(5 * time.Second)
		var o outcome
		o.full = r.Result()
		o.windowA = r.CollectWindow(0, mid)
		o.windowB = r.CollectWindow(mid, r.Network().Now()+time.Hour)
		o.rec, o.recovered, o.measured = r.RecoveryTime(event, r.Network().Now())
		return o
	}
	s, f := drive(false), drive(true)
	cmp := func(name string, a, b sim.Result) {
		if a.MessagesSent != b.MessagesSent || a.Deliveries != b.Deliveries ||
			a.MeanLatency != b.MeanLatency || a.P50Latency != b.P50Latency ||
			a.P95Latency != b.P95Latency || a.DeliveryRate != b.DeliveryRate ||
			a.AtomicRate != b.AtomicRate || a.PayloadPerMsg != b.PayloadPerMsg ||
			a.Top5Share != b.Top5Share || a.JoinerCoverage != b.JoinerCoverage {
			t.Fatalf("%s diverged:\nstreaming: %+v\nfull:      %+v", name, a, b)
		}
	}
	cmp("Result", s.full, f.full)
	cmp("CollectWindow pre-crash", s.windowA, f.windowA)
	cmp("CollectWindow post-crash", s.windowB, f.windowB)
	if s.rec != f.rec || s.recovered != f.recovered || s.measured != f.measured {
		t.Fatalf("RecoveryTime diverged: streaming %v/%v/%v, full %v/%v/%v",
			s.rec, s.recovered, s.measured, f.rec, f.recovered, f.measured)
	}
}

// TestRecoveryUnmarkedPanics: asking for a recovery time over a window the
// streaming trace never marked must fail loudly, not mis-measure.
func TestRecoveryUnmarkedPanics(t *testing.T) {
	r := sim.New(testConfig(20))
	r.Warmup()
	event := r.Network().Now()
	r.MulticastFrom(0, []byte("unmarked"))
	r.RunFor(5 * time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("RecoveryTime over an unmarked streaming window did not panic")
		}
	}()
	r.RecoveryTime(event, r.Network().Now())
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
