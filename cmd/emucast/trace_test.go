package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenarioTreeArtifacts runs `emucast scenario -trees -timeline -dot`
// end to end and checks the three artifacts land where the flags say,
// with coherent content.
func TestScenarioTreeArtifacts(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	err := run([]string{"scenario", "-nodes", "20", "-scale", "8", "-trace-sample", "1",
		"-trees", filepath.Join(dir, "trees.json"), "-timeline", filepath.Join(dir, "timeline.json"),
		"-dot", filepath.Join(dir, "tree.dot"), "steady-poisson"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errOut.String())
	}
	if !strings.Contains(errOut.String(), "sampled trees") {
		t.Fatalf("summary missing from stderr:\n%s", errOut.String())
	}

	var trees struct {
		Sampled int `json:"sampled"`
		Trees   []struct {
			Depth      int `json:"depth"`
			Deliveries int `json:"deliveries"`
		} `json:"trees"`
	}
	raw, err := os.ReadFile(filepath.Join(dir, "trees.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &trees); err != nil {
		t.Fatalf("trees.json invalid: %v", err)
	}
	if trees.Sampled == 0 || len(trees.Trees) != trees.Sampled {
		t.Fatalf("trees.json sampled=%d len=%d", trees.Sampled, len(trees.Trees))
	}
	for _, tr := range trees.Trees {
		if tr.Deliveries == 0 || tr.Depth == 0 {
			t.Fatalf("degenerate tree in report: %+v", tr)
		}
	}

	var timeline struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	raw, err = os.ReadFile(filepath.Join(dir, "timeline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &timeline); err != nil {
		t.Fatalf("timeline.json invalid: %v", err)
	}
	if len(timeline.TraceEvents) == 0 {
		t.Fatal("timeline.json has no events")
	}

	dot, err := os.ReadFile(filepath.Join(dir, "tree.dot"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dot), "digraph dissemination") {
		t.Fatalf("tree.dot is not a digraph:\n%s", dot)
	}
}

// TestScenarioTraceErrors: tracing flags on `scenario` still reject a
// missing scenario, a bad sample rate and an unknown builtin.
func TestScenarioTraceErrors(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "tree.dot")
	for _, args := range [][]string{
		{"scenario", "-dot", dot},
		{"scenario", "-nodes", "20", "-scale", "8", "-trace-sample", "2", "steady-poisson"},
		{"scenario", "-dot", dot, "nosuch-scenario"},
	} {
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err == nil {
			t.Fatalf("run(%v) succeeded, want error", args)
		}
	}
}

// TestBenchCommand runs a tiny bench and checks the JSON document.
func TestBenchCommand(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out, errOut bytes.Buffer
	err := run([]string{"bench", "-sizes", "30", "-scale", "8", "-rev", "test", "-json", path}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errOut.String())
	}
	var res struct {
		Rev   string `json:"rev"`
		Go    string `json:"go"`
		Cells []struct {
			Nodes         int     `json:"nodes"`
			Events        uint64  `json:"events"`
			WallSeconds   float64 `json:"wall_s"`
			EventsPerSec  float64 `json:"events_per_sec"`
			PeakHeapBytes uint64  `json:"peak_heap_bytes"`
		} `json:"cells"`
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("bench JSON invalid: %v", err)
	}
	if res.Rev != "test" || res.Go == "" || len(res.Cells) != 1 {
		t.Fatalf("bench document wrong: %+v", res)
	}
	c := res.Cells[0]
	if c.Nodes != 30 || c.Events == 0 || c.WallSeconds <= 0 || c.EventsPerSec <= 0 || c.PeakHeapBytes == 0 {
		t.Fatalf("bench cell wrong: %+v", c)
	}
}

// TestBenchCommandErrors: bad sizes are rejected.
func TestBenchCommandErrors(t *testing.T) {
	for _, args := range [][]string{
		{"bench", "-sizes", ""},
		{"bench", "-sizes", "abc"},
		{"bench", "unexpected-arg"},
	} {
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err == nil {
			t.Fatalf("run(%v) succeeded, want error", args)
		}
	}
}

// TestScenarioTraceFlags: -trees - embeds the tree report in the report
// JSON, and plain runs leave the key absent (byte-identity at the CLI
// boundary too).
func TestScenarioTraceFlags(t *testing.T) {
	args := []string{"scenario", "-nodes", "20", "-scale", "8", "-seed", "5", "steady-poisson"}
	var plain, errOut bytes.Buffer
	if err := run(args, &plain, &errOut); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errOut.String())
	}
	if strings.Contains(plain.String(), `"trees"`) {
		t.Fatal("plain scenario output contains a trees key")
	}

	var embedded bytes.Buffer
	errOut.Reset()
	withTrees := append(args[:len(args)-1:len(args)-1], "-trace-sample", "1", "-trees", "-", "steady-poisson")
	if err := run(withTrees, &embedded, &errOut); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errOut.String())
	}
	var rep struct {
		Trees *struct {
			Sampled int `json:"sampled"`
		} `json:"trees"`
	}
	if err := json.Unmarshal(embedded.Bytes(), &rep); err != nil {
		t.Fatalf("output not JSON: %v", err)
	}
	if rep.Trees == nil || rep.Trees.Sampled == 0 {
		t.Fatalf("embedded tree report missing: %v", rep.Trees)
	}

	// Stripping the trees key must recover the plain report byte for byte.
	var full map[string]json.RawMessage
	if err := json.Unmarshal(embedded.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	delete(full, "trees")
	var plainDoc map[string]json.RawMessage
	if err := json.Unmarshal(plain.Bytes(), &plainDoc); err != nil {
		t.Fatal(err)
	}
	for k, v := range plainDoc {
		if !bytes.Equal(v, full[k]) {
			t.Fatalf("report key %q differs with tracing on:\nplain: %s\ntraced: %s", k, v, full[k])
		}
	}
}
