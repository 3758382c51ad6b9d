package scenario

import (
	"bytes"
	"testing"

	"emcast/internal/obs"
)

// TestReportByteIdenticalWithFootprints mirrors
// TestReportByteIdenticalWithObs for the performance accounting plane:
// with the registry and event log attached, the engine walks per-node
// footprints at every phase boundary and the emulator runs with its
// class counters live — and the report still must not move
// by a byte. Then it checks the plane actually measured something.
func TestReportByteIdenticalWithFootprints(t *testing.T) {
	run := func(reg *obs.Registry, log *obs.EventLog) []byte {
		spec := obsEquivSpec(t)
		spec.Obs = reg
		spec.EventLog = log
		eng, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		enc, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}

	plain := run(nil, nil)
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	observed := run(reg, obs.NewEventLog(&logBuf, reg))

	if !bytes.Equal(plain, observed) {
		t.Fatalf("report changed with accounting attached:\nwithout: %s\nwith:    %s", plain, observed)
	}

	// Hot-loop breakdown: the class counters must account for every
	// event, exactly.
	values := obs.Scalars(reg.Snapshot())
	total := values["sim_events_total"]
	deliver := values[`sim_events_class_total{class="deliver"}`]
	timer := values[`sim_events_class_total{class="timer"}`]
	if total <= 0 {
		t.Fatalf("sim_events_total = %v, want > 0", total)
	}
	if deliver+timer != total {
		t.Errorf("class counts deliver=%v + timer=%v != events %v", deliver, timer, total)
	}

	// Memory attribution: the boundary walk published per-subsystem
	// gauges for every state owner.
	for _, sub := range []string{"membership", "gossip", "lazy", "core", "emunet", "trace", "topology"} {
		if v, ok := values[`sim_footprint_bytes{subsystem="`+sub+`"}`]; !ok || v <= 0 {
			t.Errorf("sim_footprint_bytes{subsystem=%q} = %v (ok=%v), want > 0", sub, v, ok)
		}
	}

	// And the event log carried the per-phase accounting field.
	if !bytes.Contains(logBuf.Bytes(), []byte(`"footprint_bytes"`)) {
		t.Error("event log has no footprint_bytes field")
	}
}
