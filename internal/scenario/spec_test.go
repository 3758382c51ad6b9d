package scenario

import (
	"sort"
	"strings"
	"testing"
	"time"
)

func TestParseAppliesDefaults(t *testing.T) {
	spec, err := ParseString(`{
		"name": "minimal",
		"phases": [{"duration": "10s", "traffic": [{"kind": "poisson", "rate": 2}]}]
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Nodes != 100 || spec.Seed != 1 || spec.Strategy != "eager" {
		t.Fatalf("defaults not applied: %+v", spec)
	}
	if spec.Drain.D() != 10*time.Second {
		t.Fatalf("drain default = %v", spec.Drain.D())
	}
	p := spec.Phases[0]
	if p.Name != "phase-1" {
		t.Fatalf("phase name default = %q", p.Name)
	}
	tr := p.Traffic[0]
	if tr.Senders != SendersRoundRobin || tr.PayloadSize != 256 {
		t.Fatalf("traffic defaults not applied: %+v", tr)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := ParseString(`{"name": "x", "phasez": []}`)
	if err == nil || !strings.Contains(err.Error(), "phasez") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
}

func TestDurationForms(t *testing.T) {
	spec, err := ParseString(`{
		"phases": [
			{"duration": "1m30s", "traffic": [{"kind": "constant", "rate": 1}]},
			{"duration": 2.5, "traffic": [{"kind": "constant", "rate": 1}]}
		]
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Phases[0].Duration.D() != 90*time.Second {
		t.Fatalf("string duration = %v", spec.Phases[0].Duration.D())
	}
	if spec.Phases[1].Duration.D() != 2500*time.Millisecond {
		t.Fatalf("numeric duration = %v", spec.Phases[1].Duration.D())
	}
	if _, err := ParseString(`{"phases": [{"duration": "fast"}]}`); err == nil {
		t.Fatal("bad duration accepted")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name, json, want string
	}{
		{"no phases", `{}`, "no phases"},
		{"bad strategy", `{"strategy": "warp", "phases": [{"duration": "1s"}]}`, "unknown strategy"},
		{"bad traffic kind", `{"phases": [{"duration": "1s", "traffic": [{"kind": "firehose", "rate": 1}]}]}`, "unknown kind"},
		{"zero rate", `{"phases": [{"duration": "1s", "traffic": [{"kind": "poisson"}]}]}`, "rate"},
		{"bad senders", `{"phases": [{"duration": "1s", "traffic": [{"kind": "poisson", "rate": 1, "senders": "vip"}]}]}`, "unknown senders"},
		{"fixed without list", `{"phases": [{"duration": "1s", "traffic": [{"kind": "poisson", "rate": 1, "senders": "fixed"}]}]}`, "fixed_senders"},
		{"sender out of range", `{"nodes": 10, "phases": [{"duration": "1s", "traffic": [{"kind": "poisson", "rate": 1, "senders": "fixed", "fixed_senders": [10]}]}]}`, "outside"},
		{"payload too large", `{"phases": [{"duration": "1s", "traffic": [{"kind": "poisson", "rate": 1, "payload_size": 2097152}]}]}`, "wire limit"},
		{"bad churn kind", `{"phases": [{"duration": "1s", "churn": [{"kind": "rapture", "count": 1}]}]}`, "unknown kind"},
		{"churn both sizes", `{"phases": [{"duration": "1s", "churn": [{"kind": "crash-wave", "count": 1, "fraction": 0.5}]}]}`, "exactly one"},
		{"churn no size", `{"phases": [{"duration": "1s", "churn": [{"kind": "crash-wave"}]}]}`, "exactly one"},
		{"churn outside phase", `{"phases": [{"duration": "1s", "churn": [{"kind": "crash-wave", "count": 1, "at": "2s"}]}]}`, "outside the phase"},
		{"churn window too long", `{"phases": [{"duration": "10s", "churn": [{"kind": "crash-wave", "count": 1, "at": "5s", "over": "6s"}]}]}`, "exceeds the phase"},
		{"bad net kind", `{"phases": [{"duration": "1s", "network": [{"kind": "wormhole"}]}]}`, "unknown kind"},
		{"partition without sides", `{"phases": [{"duration": "1s", "network": [{"kind": "partition"}]}]}`, "groups or split"},
		{"partition member out of range", `{"nodes": 10, "phases": [{"duration": "1s", "network": [{"kind": "partition", "groups": [[3, 10]]}]}]}`, "outside"},
		{"bad loss event", `{"phases": [{"duration": "1s", "network": [{"kind": "loss", "loss": 1.5}]}]}`, "loss"},
		{"bad factor", `{"phases": [{"duration": "1s", "network": [{"kind": "latency-factor"}]}]}`, "factor"},
		{"bad noise", `{"noise": 2, "phases": [{"duration": "1s"}]}`, "noise"},
	}
	for _, c := range cases {
		_, err := ParseString(c.json)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

func TestJoinersTotalsJoinChurn(t *testing.T) {
	spec, err := ParseString(`{
		"nodes": 40,
		"phases": [
			{"duration": "10s", "churn": [{"kind": "join-wave", "count": 5}]},
			{"duration": "10s", "churn": [
				{"kind": "flash-crowd", "fraction": 0.5},
				{"kind": "crash-wave", "count": 3}
			]}
		]
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Joiners(); got != 25 {
		t.Fatalf("Joiners = %d, want 25 (5 + 20)", got)
	}
}

func TestBuiltinsAreValid(t *testing.T) {
	names := BuiltinNames()
	if !sort.StringsAreSorted(names) {
		t.Fatal("builtin names not sorted")
	}
	required := []string{"steady-poisson", "flash-crowd", "crash-wave", "partition-heal"}
	for _, want := range required {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("required archetype %q missing from builtins %v", want, names)
		}
	}
	for _, n := range names {
		spec, err := Builtin(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("builtin %s invalid: %v", n, err)
		}
		if spec.Name != n {
			t.Errorf("builtin %s names itself %q", n, spec.Name)
		}
	}
	if _, err := Builtin("no-such"); err == nil {
		t.Fatal("unknown builtin accepted")
	}
}
