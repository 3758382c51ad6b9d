package scenario

import (
	"bytes"
	"testing"

	"emcast/internal/obs"
)

// TestReportByteIdenticalWithTraceSample pins the dissemination tracer's
// core contract: sampling is strictly read-only — the scenario report is
// byte-identical with tracing off, at a partial rate, and at rate 1.
// The engine never embeds the tree report; callers opt in explicitly.
func TestReportByteIdenticalWithTraceSample(t *testing.T) {
	run := func(rate float64) []byte {
		spec := obsEquivSpec(t)
		spec.TraceSample = rate
		eng, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rate > 0 {
			if eng.DissTracer() == nil {
				t.Fatal("TraceSample > 0 but no dissemination tracer attached")
			}
			if tr := eng.TreeReport(); tr == nil {
				t.Fatal("TreeReport is nil with sampling on")
			}
		} else if eng.DissTracer() != nil {
			t.Fatal("TraceSample 0 attached a tracer")
		}
		enc, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}

	off := run(0)
	partial := run(0.5)
	full := run(1)
	if !bytes.Equal(off, partial) {
		t.Fatalf("report changed at rate 0.5:\noff: %s\non:  %s", off, partial)
	}
	if !bytes.Equal(off, full) {
		t.Fatalf("report changed at rate 1:\noff: %s\non:  %s", off, full)
	}
}

// TestTreeReportPopulatesObs: when both the obs plane and sampling are
// on, the engine drives Report() before releasing the registry, so the
// tree instruments carry values without any caller involvement.
func TestTreeReportPopulatesObs(t *testing.T) {
	spec := obsEquivSpec(t)
	spec.TraceSample = 1
	reg := obs.NewRegistry()
	spec.Obs = reg
	eng, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	tr := eng.TreeReport()
	if tr == nil || tr.Sampled == 0 {
		t.Fatalf("tree report = %+v, want sampled trees", tr)
	}
	values := obs.Scalars(reg.Snapshot())
	if v, ok := values["disstrace_sampled_trees_total"]; !ok || v != float64(tr.Sampled) {
		t.Fatalf("disstrace_sampled_trees_total = %v (ok=%v), want %d", v, ok, tr.Sampled)
	}
	// Every sampled tree contributes one depth observation.
	if v, ok := values["disstrace_tree_depth_count"]; !ok || v != float64(tr.Sampled) {
		t.Fatalf("disstrace_tree_depth count = %v (ok=%v), want %d", v, ok, tr.Sampled)
	}
}
