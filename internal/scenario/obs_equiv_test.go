package scenario

import (
	"bytes"
	"testing"

	"emcast/internal/obs"
)

// obsEquivSpec is a small but non-trivial scenario: two phases and churn
// — enough to exercise every instrumented layer.
func obsEquivSpec(t *testing.T) Spec {
	t.Helper()
	spec, err := ParseString(`{
		"name": "obs-equiv",
		"nodes": 20,
		"topology_scale": 8,
		"strategy": "radius",
		"drain": "5s",
		"phases": [
			{"name": "steady", "duration": "8s",
			 "traffic": [{"kind": "poisson", "rate": 3, "senders": "uniform"}]},
			{"name": "crash", "duration": "10s",
			 "traffic": [{"kind": "poisson", "rate": 3, "senders": "uniform"}],
			 "churn": [{"kind": "crash-wave", "count": 3, "at": "2s"}]}
		]
	}`)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestReportByteIdenticalWithObs pins the observability plane's core
// contract: attaching a registry and an event log to a run must not
// change the report by a single byte. The obs plane only reads the
// simulation; the seeded deterministic path never sees it.
func TestReportByteIdenticalWithObs(t *testing.T) {
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
		t.Fatalf("report changed with obs attached:\nwithout: %s\nwith:    %s", plain, observed)
	}

	// And the plane actually observed the run: the instruments registered
	// by every layer carry non-zero values.
	values := obs.Scalars(reg.Snapshot())
	for _, name := range []string{
		"sim_events_total",
		"sim_frames_sent_total",
		"sim_frames_delivered_total",
		"sim_multicasts_total",
		"sim_deliveries_total",
		"sim_bytes_delivered_total",
	} {
		if v, ok := values[name]; !ok || v <= 0 {
			t.Errorf("%s = %v (ok=%v), want > 0", name, v, ok)
		}
	}
	if logBuf.Len() == 0 {
		t.Error("event log is empty")
	}
}
