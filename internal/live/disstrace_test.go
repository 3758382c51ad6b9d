package live

import (
	"testing"
)

// TestLiveTraceSample: a live TCP run with sampling on collects real
// trees — every sampled multicast in a no-loss run reaches all 8 peers,
// and the hop edges reconstruct to full-coverage trees with sane depths.
func TestLiveTraceSample(t *testing.T) {
	spec := noLossSpec()
	spec.TraceSample = 1 // sample everything: the run is tiny

	h, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if h.DissTracer() == nil {
		t.Fatal("TraceSample > 0 but no dissemination tracer attached")
	}
	tr := h.TreeReport()
	if tr == nil || tr.Sampled == 0 {
		t.Fatalf("tree report = %+v, want sampled trees", tr)
	}
	if tr.Sampled != rep.Overall.MessagesSent {
		t.Fatalf("sampled %d trees at rate 1, want every one of %d messages",
			tr.Sampled, rep.Overall.MessagesSent)
	}
	for _, ts := range tr.Trees {
		if ts.Deliveries != spec.Nodes {
			t.Fatalf("tree %s delivered to %d nodes on a no-loss run, want %d",
				ts.ID, ts.Deliveries, spec.Nodes)
		}
		// 7 non-origin nodes each have exactly one parent edge.
		if hops := ts.EagerHops + ts.LazyHops; hops != spec.Nodes-1 {
			t.Fatalf("tree %s has %d delivery edges, want %d", ts.ID, hops, spec.Nodes-1)
		}
		if ts.Depth < 1 || ts.Depth >= spec.Nodes {
			t.Fatalf("tree %s depth = %d, want within [1, %d)", ts.ID, ts.Depth, spec.Nodes)
		}
		if ts.LastDeliveryMS <= 0 {
			t.Fatalf("tree %s last delivery = %v, want > 0", ts.ID, ts.LastDeliveryMS)
		}
	}
}

// TestLiveTraceSampleOff: without sampling the harness attaches nothing.
// Both pointers are fixed at New, so no fleet needs to run.
func TestLiveTraceSampleOff(t *testing.T) {
	h, err := New(noLossSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h.DissTracer() != nil || h.TreeReport() != nil {
		t.Fatal("tracer attached with TraceSample 0")
	}
}
