package scenario

import (
	"math"
	"testing"
	"time"

	"emcast/internal/sim"
	"emcast/internal/topology"
	"emcast/internal/trace"
)

// playEngine runs spec and returns the engine (for its runner) with the
// report.
func playEngine(t *testing.T, spec Spec) (*Engine, *Report) {
	t.Helper()
	e, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return e, rep
}

// constantSpec is exactly messages multicasts 500 ms apart from
// round-robin senders, so message counts are exact.
func constantSpec(messages int) Spec {
	return testSpec(Phase{
		Name:     "traffic",
		Duration: Duration(time.Duration(messages+1) * 500 * time.Millisecond),
		Traffic:  []TrafficSpec{{Kind: TrafficConstant, Rate: 2}},
	})
}

// TestWindowMetricsPartitionsRun: splitting a run into two windows at any
// boundary must partition the messages and their deliveries, and each
// window's metrics must reflect only its own messages.
func TestWindowMetricsPartitionsRun(t *testing.T) {
	e, rep := playEngine(t, constantSpec(40))
	r := e.Runner()
	full := rep.Overall
	if full.MessagesSent != 40 {
		t.Fatalf("MessagesSent = %d, want 40", full.MessagesSent)
	}

	msgs, live := r.MessageStats(), liveOriginals(r.Live(), len(r.Nodes()))
	mid := rep.Elapsed.D() / 2
	a := windowMetrics(msgs, live, 0, mid)
	b := windowMetrics(msgs, live, mid, math.MaxInt64)
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
	sum := 0
	for _, m := range msgs {
		sum += m.Payloads
	}
	if cp := r.Checkpoint(); sum != cp.TotalPayloads {
		t.Fatalf("per-message payloads sum to %d, total is %d", sum, cp.TotalPayloads)
	}
}

// TestWindowMetricsEmpty: a window with no messages yields zero metrics.
func TestWindowMetricsEmpty(t *testing.T) {
	e, _ := playEngine(t, constantSpec(10))
	r := e.Runner()
	m := windowMetrics(r.MessageStats(), liveOriginals(r.Live(), len(r.Nodes())), 0, time.Nanosecond)
	if m != (Metrics{}) {
		t.Fatalf("empty window yielded %+v", m)
	}
}

// TestLinkTopShareDiff: the Report and Measure take the whole-run share
// through the same function, so they agree exactly with a diff from the
// start of the run; a diff between identical checkpoints is zero.
func TestLinkTopShareDiff(t *testing.T) {
	spec := constantSpec(30)
	spec.Strategy = "ranked"
	e, rep := playEngine(t, spec)
	cp := e.Runner().Checkpoint()
	if got := linkTopShare(trace.Checkpoint{}, cp, 0.05); got != rep.Overall.Top5LinkShare {
		t.Fatalf("linkTopShare from start = %v, report says %v", got, rep.Overall.Top5LinkShare)
	}
	if got := Measure(e.Runner()).Top5LinkShare; got != rep.Overall.Top5LinkShare {
		t.Fatalf("Measure top-5%% share = %v, report says %v", got, rep.Overall.Top5LinkShare)
	}
	if got := linkTopShare(cp, cp, 0.05); got != 0 {
		t.Fatalf("linkTopShare of empty diff = %v, want 0", got)
	}
}

// TestMeasureMatchesReport: Measure over a Player's runner reproduces the
// Report's whole-run metrics, except the counters the Report takes from
// the end of warm-up (frames) and the sends only the Player saw skipped.
func TestMeasureMatchesReport(t *testing.T) {
	spec := constantSpec(20)
	spec.Phases[0].Churn = []ChurnSpec{{Kind: ChurnJoinWave, Count: 4, Over: sec(5)}}
	e, rep := playEngine(t, spec)
	got, want := Measure(e.Runner()), rep.Overall
	if got.FramesSent <= want.FramesSent {
		t.Fatalf("Measure frames %d not above the report's post-warm-up %d", got.FramesSent, want.FramesSent)
	}
	got.FramesSent, got.FramesLost = want.FramesSent, want.FramesLost
	if got != want {
		t.Fatalf("Measure diverged from the report:\nmeasure: %+v\nreport:  %+v", got, want)
	}
}

// TestRecoveryUnmarkedPanics: asking for a recovery time over a window the
// streaming trace never marked must fail loudly, not mis-measure.
func TestRecoveryUnmarkedPanics(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Nodes = 20
	tp := topology.DefaultParams().Scaled(8)
	cfg.Topology = &tp
	r := sim.New(cfg)
	r.Warmup()
	event := r.Network().Now()
	r.MulticastFrom(0, []byte("unmarked"))
	r.RunFor(5 * time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("recovery over an unmarked streaming window did not panic")
		}
	}()
	messageRecovery(r.MessageStats(), liveOriginals(r.Live(), len(r.Nodes())), event, r.Network().Now())
}
