package scenario

import (
	"bytes"
	"fmt"
	"testing"

	"emcast/internal/faults"
)

// TestReportByteIdenticalWithFaultPlane pins the fault plane's core
// contract, mirroring TestReportByteIdenticalWithObs: attaching an
// injector with no rules to a run must not change the report by a single
// byte. The injector draws from its own stream and only when a rule
// matches, so the seeded simulation path never sees an inert one.
func TestReportByteIdenticalWithFaultPlane(t *testing.T) {
	run := func(inj *faults.Injector) []byte {
		spec := obsEquivSpec(t)
		eng, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		if inj != nil {
			eng.Runner().Network().SetFaults(inj)
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

	plain := run(nil)
	inj := faults.New(99) // attached but inert: no rules, no stalls
	faulted := run(inj)

	if !bytes.Equal(plain, faulted) {
		t.Fatalf("report changed with an inert injector attached:\nwithout: %s\nwith:    %s", plain, faulted)
	}
	if s := inj.Stats(); s != (faults.Stats{}) {
		t.Fatalf("inert injector recorded activity: %+v", s)
	}
}

// chaosSpec is obsEquivSpec plus every fault-* event kind.
func chaosSpec(t *testing.T) Spec {
	t.Helper()
	spec, err := ParseString(`{
		"name": "chaos-equiv",
		"nodes": 20,
		"topology_scale": 8,
		"strategy": "radius",
		"drain": "5s",
		"phases": [
			{"name": "steady", "duration": "8s",
			 "traffic": [{"kind": "poisson", "rate": 3, "senders": "uniform"}],
			 "network": [
				{"at": "1s", "kind": "fault-link", "drop": 0.3, "duplicate": 0.05},
				{"at": "2s", "kind": "fault-slow", "nodes": [3, 4], "delay": "40ms"},
				{"at": "3s", "kind": "fault-stall", "nodes": [5], "for": "2s"}
			 ]},
			{"name": "crash-and-heal", "duration": "10s",
			 "traffic": [{"kind": "poisson", "rate": 3, "senders": "uniform"}],
			 "network": [
				{"at": "1s", "kind": "fault-crash", "nodes": [7, 11]},
				{"at": "4s", "kind": "fault-clear"}
			 ]}
		]
	}`)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestChaoticRunDeterministic pins determinism WITH the fault plane
// active: the same chaotic spec replays to a byte-identical report, and
// the injector's activity counters replay exactly too.
func TestChaoticRunDeterministic(t *testing.T) {
	run := func() ([]byte, faults.Stats) {
		eng, err := New(chaosSpec(t))
		if err != nil {
			t.Fatal(err)
		}
		if eng.Faults() == nil {
			t.Fatal("chaos spec did not provision an injector")
		}
		rep, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		enc, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return enc, eng.Faults().Stats()
	}
	a, sa := run()
	b, sb := run()
	if !bytes.Equal(a, b) {
		t.Fatalf("chaotic run not reproducible:\nfirst:  %s\nsecond: %s", a, b)
	}
	if sa != sb {
		t.Fatalf("injector stats diverged: %+v vs %+v", sa, sb)
	}
	if sa.Dropped == 0 || sa.Delayed == 0 || sa.Stalled == 0 {
		t.Fatalf("chaos spec injected nothing: %+v", sa)
	}
}

// TestFaultEventValidation covers the new kinds' spec-level checks.
func TestFaultEventValidation(t *testing.T) {
	base := `{"name": "v", "nodes": 10, "phases": [{"name": "p", "duration": "5s",
		"network": [%s]}]}`
	bad := []string{
		`{"kind": "fault-link"}`,                                     // injects nothing
		`{"kind": "fault-link", "drop": 1.5}`,                        // probability out of range
		`{"kind": "fault-link", "drop": 0.5, "from": [99]}`,          // scope out of range
		`{"kind": "fault-stall", "for": "1s"}`,                       // no victims
		`{"kind": "fault-stall", "nodes": [1]}`,                      // no duration
		`{"kind": "fault-crash", "nodes": [10]}`,                     // victim out of range
		`{"kind": "fault-slow", "nodes": [1]}`,                       // no delay
		`{"kind": "fault-link", "drop": 0.5, "unknown_field": true}`, // typo
	}
	for _, ev := range bad {
		if _, err := ParseString(fmt.Sprintf(base, ev)); err == nil {
			t.Errorf("accepted bad fault event %s", ev)
		}
	}
	good := []string{
		`{"kind": "fault-link", "drop": 0.3}`,
		`{"kind": "fault-link", "delay": "10ms", "from": [0, 1], "to": [2]}`,
		`{"kind": "fault-clear"}`,
		`{"kind": "fault-stall", "nodes": [1, 2], "for": "3s"}`,
		`{"kind": "fault-crash", "nodes": [9]}`,
		`{"kind": "fault-slow", "nodes": [0], "delay_jitter": "5ms"}`,
	}
	for _, ev := range good {
		spec, err := ParseString(fmt.Sprintf(base, ev))
		if err != nil {
			t.Errorf("rejected good fault event %s: %v", ev, err)
			continue
		}
		if !spec.HasFaults() {
			t.Errorf("HasFaults false for %s", ev)
		}
	}
	// A spec without fault events must not provision an injector.
	spec, err := ParseString(`{"name": "plain", "nodes": 10,
		"phases": [{"name": "p", "duration": "5s"}]}`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.HasFaults() {
		t.Error("HasFaults true for a fault-free spec")
	}
	eng, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Faults() != nil {
		t.Error("fault-free spec provisioned an injector")
	}
}
