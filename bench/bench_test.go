package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// The smoke test runs every workload shrunk by -quick through the same code
// paths a full run takes, and holds BENCHMARK.json to what the program
// actually measures. Run it from this directory: go test .

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// buildBench builds the benchmark binary the children are started from and
// the contract is checked against.
func buildBench(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "emcast-bench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return exe
}

func TestManifestMatchesProgram(t *testing.T) {
	childExe = buildBench(t)
	defer func() { childExe = "" }()
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, mt := range append(append([]metric{}, m.EndToEnd...), m.PerLayer...) {
		if !nameRE.MatchString(mt.Name) {
			t.Errorf("metric name %q is outside the name alphabet", mt.Name)
		}
		if seen[mt.Name] {
			t.Errorf("metric %q is listed twice", mt.Name)
		}
		seen[mt.Name] = true
	}
	if len(m.Workloads) != len(workloadDefs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program defines %d", len(m.Workloads), len(workloadDefs))
	}

	// Every workload reports every end-to-end metric and passes its checks.
	for _, w := range m.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is outside the name alphabet", w.Name)
		}
		it, err := spawn(w.Name, 1, modePlain, true, "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := endToEnd(m, []*iteration{it}); err != nil {
			t.Error(err)
		}
		for _, mt := range m.EndToEnd {
			if it.Metrics[mt.Name] == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, mt.Name)
			}
		}
		if v := check([]*iteration{it}); len(v.failures) > 0 || v.attempted == 0 {
			t.Errorf("%s: attempted %d, failures %v", w.Name, v.attempted, v.failures)
		}
	}

	// Every per-layer metric is measured by the ledger of a lazy simulator
	// workload or of a live one: a name the program does not know would
	// otherwise read 0 for ever.
	micros, err := runMicros()
	if err != nil {
		t.Fatal(err)
	}
	produced := map[string]bool{}
	for _, w := range []string{"sim-lazy-1k", "live-small"} {
		all, v, err := gather(m, w, 1, true, micros)
		if err != nil {
			t.Fatal(err)
		}
		if len(v.failures) > 0 {
			t.Errorf("%s: %v", w, v.failures)
		}
		for name := range all {
			produced[name] = true
		}
		if _, err := os.Stat(filepath.Join(m.outDir(), w+".trace.json")); err != nil {
			t.Error(err)
		}
	}
	for _, mt := range m.PerLayer {
		if !produced[mt.Name] {
			t.Errorf("per-layer metric %s is in BENCHMARK.json but nothing measures it", mt.Name)
		}
	}
}

// TestContractLine checks the one JSON object the driver reads: its keys,
// and every metric of the requested kind with its declared unit.
func TestContractLine(t *testing.T) {
	exe := buildBench(t)
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]metric{"0": m.EndToEnd, "1": m.PerLayer} {
		out, err := exec.Command(exe, "--workload", "live-saturate", "--seed", "7", "--seconds", "1", "--trace", trace, "-quick").Output()
		if err != nil {
			t.Fatalf("trace %s: %v", trace, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res struct {
			Correct   *bool `json:"correct"`
			Attempted *int64
			Failed    *int64
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("trace %s: last line is not the result object: %v", trace, err)
		}
		if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
			t.Errorf("trace %s: correct/attempted/failed: %s", trace, lines[len(lines)-1])
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(res.Metrics), len(want))
		}
		for _, mt := range want {
			got, ok := res.Metrics[mt.Name]
			if !ok || got.Value == nil || got.Unit != mt.Unit {
				t.Errorf("trace %s: metric %s: got %+v, want unit %q", trace, mt.Name, got, mt.Unit)
			}
		}
	}
}

// TestCompareVerdicts pins the rule -compare applies.
func TestCompareVerdicts(t *testing.T) {
	lower := &metric{Better: "lower", Bound: 0.10}
	higher := &metric{Better: "higher", Bound: 0.10}
	steady := func(x float64) summary { return summary{Median: x, Q1: x * 0.99, Q3: x * 1.01, N: 5} }
	noisy := summary{Median: 100, Q1: 90, Q3: 115, N: 5}
	for _, c := range []struct {
		mt   *metric
		a, b summary
		want string
	}{
		{lower, steady(100), steady(105), "same"},
		{lower, steady(100), steady(112), "worse"},
		{lower, steady(100), steady(85), "better"},
		{higher, steady(100), steady(85), "worse"},
		{higher, steady(100), steady(112), "better"},
		{lower, noisy, steady(130), "unresolved"},
	} {
		if got := judge(c.mt, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", c.mt.Better, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
}
