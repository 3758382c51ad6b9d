package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emcast/internal/scenario"
)

// chaosUnitSpec is chaos-faults.json in miniature: a clean phase, link
// drop, a stall and a crash, then a clear as the last phase starts.
const chaosUnitSpec = `{
  "name": "cli-chaos",
  "seed": 4,
  "nodes": 6,
  "strategy": "eager",
  "topology_scale": 8,
  "drain": "1s",
  "phases": [
    {"name": "baseline", "duration": "800ms",
     "traffic": [{"kind": "constant", "rate": 5}]},
    {"name": "under-fire", "duration": "1200ms",
     "traffic": [{"kind": "constant", "rate": 5}],
     "network": [
       {"at": "200ms", "kind": "fault-link", "drop": 0.3},
       {"at": "300ms", "kind": "fault-stall", "nodes": [1], "for": "400ms"},
       {"at": "500ms", "kind": "fault-crash", "nodes": [5]}
     ]},
    {"name": "healed", "duration": "1s",
     "traffic": [{"kind": "constant", "rate": 5}],
     "network": [{"at": "0s", "kind": "fault-clear"}]}
  ]
}`

// TestChaosCommandSmoke runs a short chaos spec end to end through the
// CLI: the Report on stdout and in -json, the obs log on disk, a passing
// verdict — the CI smoke in miniature.
func TestChaosCommandSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos playback takes several seconds")
	}
	dir := t.TempDir()
	specPath := filepath.Join(dir, "chaos.json")
	if err := os.WriteFile(specPath, []byte(chaosUnitSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "chaos.jsonl")
	repPath := filepath.Join(dir, "report.json")
	var out, errOut bytes.Buffer
	err := run([]string{"chaos", "-q", "-spec", specPath, "-json", repPath, "-obs-log", logPath}, &out, &errOut)
	if err != nil {
		t.Fatalf("chaos smoke failed: %v\nstderr: %s\nstdout: %s", err, errOut.String(), out.String())
	}
	if !strings.Contains(errOut.String(), "chaos: recovered") {
		t.Fatalf("no verdict on stderr: %s", errOut.String())
	}

	var rep scenario.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not the Report: %v\n%s", err, out.String())
	}
	if rep.Scenario != "cli-chaos" || len(rep.Phases) != 3 {
		t.Fatalf("report = %s", out.String())
	}
	disk, err := os.ReadFile(repPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, out.Bytes()) {
		t.Fatal("-json file differs from stdout")
	}

	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	events := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(log)), "\n") {
		var rec struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad obs log line %q: %v", line, err)
		}
		events[rec.Event]++
	}
	if events["run_start"] != 1 || events["phase_end"] != 3 || events["run_end"] != 1 {
		t.Fatalf("obs log events = %v, want run_start, 3 phase_end, run_end", events)
	}
}

func TestChaosCommandRejectsPositionalArgs(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"chaos", "extra"}, &out, &errOut); err == nil {
		t.Fatal("unknown builtin accepted")
	}
	if err := run([]string{"chaos", "-spec", "x.json", "extra"}, &out, &errOut); err == nil {
		t.Fatal("spec file plus builtin accepted")
	}
}

// TestChaosVerdict judges hand-built Reports, and a fault-free spec,
// which is refused before any peer starts.
func TestChaosVerdict(t *testing.T) {
	report := func(first, last float64) *scenario.Report {
		return &scenario.Report{Phases: []scenario.PhaseReport{
			{Name: "baseline", Metrics: scenario.Metrics{AtomicRate: first}},
			{Name: "under-fire", Metrics: scenario.Metrics{AtomicRate: 0.5}},
			{Name: "healed", Metrics: scenario.Metrics{AtomicRate: last}},
		}}
	}
	if err := chaosVerdict(report(1, 1), 7, 7); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if err := chaosVerdict(report(1, 1), 9, 7); err != nil {
		t.Fatalf("run that ended with fewer goroutines failed: %v", err)
	}
	for _, c := range []struct {
		name        string
		rep         *scenario.Report
		g0, g1      int
		errContains string
	}{
		{"unhealthy first phase", report(0.9, 1), 7, 7, `"baseline"`},
		{"no recovery", report(1, 0.95), 7, 7, `"healed"`},
		{"leak", report(1, 1), 7, 9, "2 goroutines leaked (7 before the run, 9 after)"},
	} {
		err := chaosVerdict(c.rep, c.g0, c.g1)
		if err == nil || !strings.Contains(err.Error(), c.errContains) {
			t.Errorf("%s: verdict %v, want an error naming %s", c.name, err, c.errContains)
		}
	}

	var out, errOut bytes.Buffer
	err := run([]string{"chaos", "steady-poisson"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "no fault-* events") {
		t.Fatalf("fault-free spec: %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("fault-free spec was played: %s", out.String())
	}
}
