package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// scenarioFile resolves a sample scenario shipped under examples/scenarios.
func scenarioFile(name string) string {
	return filepath.Join("..", "..", "examples", "scenarios", name)
}

// TestScenarioArchetypesEndToEnd runs the four core archetypes from their
// JSON files end to end and checks each emits coherent JSON metrics.
func TestScenarioArchetypesEndToEnd(t *testing.T) {
	for _, name := range []string{
		"steady-poisson.json",
		"flash-crowd.json",
		"crash-wave.json",
		"partition-heal.json",
	} {
		t.Run(name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			// -nodes/-scale shrink the runs further so CI stays fast.
			err := run([]string{"scenario", "-nodes", "25", "-f", scenarioFile(name)}, &out, &errOut)
			if err != nil {
				t.Fatalf("run: %v\nstderr: %s", err, errOut.String())
			}
			var rep struct {
				Scenario string `json:"scenario"`
				Nodes    int    `json:"nodes"`
				Overall  struct {
					MessagesSent int     `json:"messages_sent"`
					DeliveryRate float64 `json:"delivery_rate"`
				} `json:"overall"`
				Phases []struct {
					Name    string `json:"name"`
					Metrics struct {
						MessagesSent int `json:"messages_sent"`
					} `json:"metrics"`
				} `json:"phases"`
			}
			if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
				t.Fatalf("output is not JSON: %v\n%s", err, out.String())
			}
			if rep.Nodes != 25 {
				t.Fatalf("nodes override not applied: %d", rep.Nodes)
			}
			if rep.Overall.MessagesSent == 0 || len(rep.Phases) == 0 {
				t.Fatalf("empty report: %s", out.String())
			}
			if rep.Overall.DeliveryRate <= 0.3 {
				t.Fatalf("delivery rate %.3f", rep.Overall.DeliveryRate)
			}
			if rep.Scenario+".json" != name {
				t.Fatalf("scenario name %q from file %q", rep.Scenario, name)
			}
		})
	}
}

// TestScenarioReproducible: a fixed seed must reproduce the report
// bit-for-bit.
func TestScenarioReproducible(t *testing.T) {
	play := func() string {
		var out, errOut bytes.Buffer
		err := run([]string{"scenario", "-nodes", "25", "-f", scenarioFile("crash-wave.json")}, &out, &errOut)
		if err != nil {
			t.Fatalf("run: %v\nstderr: %s", err, errOut.String())
		}
		return out.String()
	}
	if a, b := play(), play(); a != b {
		t.Fatalf("same seed produced different reports:\n%s\n--- vs ---\n%s", a, b)
	}
	// A different seed must change the report.
	var out, errOut bytes.Buffer
	if err := run([]string{"scenario", "-nodes", "25", "-seed", "9", "-f", scenarioFile("crash-wave.json")}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if out.String() == play() {
		t.Fatal("seed override had no effect")
	}
}

// TestScenarioBuiltinAndText: builtins run by name, and -text switches to
// the human-readable summary.
func TestScenarioBuiltinAndText(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"scenario", "-nodes", "20", "-scale", "8", "-text", "steady-poisson"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "scenario steady-poisson") || !strings.Contains(s, "overall") {
		t.Fatalf("unexpected text output:\n%s", s)
	}
}

func TestScenarioListAndDump(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"scenario", "-list"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"steady-poisson", "flash-crowd", "crash-wave", "partition-heal"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list missing %s:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := run([]string{"scenario", "-dump", "crash-wave"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	var spec map[string]interface{}
	if err := json.Unmarshal(out.Bytes(), &spec); err != nil {
		t.Fatalf("-dump output is not JSON: %v", err)
	}
	if spec["name"] != "crash-wave" {
		t.Fatalf("-dump produced %v", spec["name"])
	}
}

func TestScenarioErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"scenario"}, &out, &errOut); err == nil {
		t.Error("missing scenario source accepted")
	}
	if err := run([]string{"scenario", "no-such-builtin"}, &out, &errOut); err == nil {
		t.Error("unknown builtin accepted")
	}
	if err := run([]string{"scenario", "-f", "does-not-exist.json"}, &out, &errOut); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"scenario", "-f", scenarioFile("crash-wave.json"), "extra"}, &out, &errOut); err == nil {
		t.Error("both -f and a builtin name accepted")
	}
}
