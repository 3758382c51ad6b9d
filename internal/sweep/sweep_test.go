package sweep

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"emcast/internal/obs"
	"emcast/internal/scenario"
)

// tinySpec is a fast 2-strategy × 1-scenario × 2-replicate sweep: 4
// cells of 20 nodes over a 1/8-size router population.
func tinySpec(t *testing.T) Spec {
	t.Helper()
	sc, err := scenario.ParseString(`{
		"name": "tiny",
		"nodes": 20,
		"topology_scale": 8,
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
	spec := Spec{
		Name:       "tiny-sweep",
		Strategies: []string{"eager", "ranked"},
		Scenarios:  []ScenarioRef{{Spec: &sc}},
		Replicates: 2,
		BaseSeed:   3,
	}
	if err := spec.Resolve(""); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSweepDeterministicAcrossWorkers: the acceptance property — the
// same spec and seeds produce a byte-identical JSON matrix at any worker
// count, so parallelism is free.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	var outputs [][]byte
	for _, workers := range []int{1, 4} {
		spec := tinySpec(t)
		spec.Workers = workers
		m, err := spec.Run()
		if err != nil {
			t.Fatal(err)
		}
		enc, err := m.JSON()
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, enc)
	}
	if !bytes.Equal(outputs[0], outputs[1]) {
		t.Fatalf("matrix differs between 1 and 4 workers:\n%s\n--- vs ---\n%s",
			outputs[0], outputs[1])
	}
}

func TestSweepShape(t *testing.T) {
	spec := tinySpec(t)
	m, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 4 {
		t.Fatalf("%d cells, want 4 (2 strategies × 1 scenario × 2 replicates)", len(m.Cells))
	}
	if len(m.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(m.Rows))
	}
	for _, r := range m.Rows {
		if r.Replicates != 2 || len(r.Seeds) != 2 {
			t.Fatalf("row %+v: bad replicate bookkeeping", r)
		}
		if r.Seeds[0] != 3 || r.Seeds[1] != 4 {
			t.Fatalf("row seeds = %v, want [3 4] (BaseSeed+r)", r.Seeds)
		}
		a, ok := r.Metrics["delivery_rate"]
		if !ok || a.N != 2 {
			t.Fatalf("row %s/%s: delivery_rate agg %+v", r.Scenario, r.Strategy, a)
		}
		if a.Min > a.Mean || a.Mean > a.Max {
			t.Fatalf("agg ordering violated: %+v", a)
		}
		// The crash phase disrupts, so recovery metrics must be present.
		if _, ok := r.Metrics["recovered"]; !ok {
			t.Fatalf("row %s/%s missing recovered metric: %v", r.Scenario, r.Strategy, r.Metrics)
		}
	}
	// Replicates use different seeds, so latency must actually vary.
	for _, r := range m.Rows {
		if a := r.Metrics["mean_latency_ms"]; a.StdDev == 0 {
			t.Fatalf("row %s/%s: zero latency spread over distinct seeds", r.Scenario, r.Strategy)
		}
	}
}

func TestSweepWinnersAndRendering(t *testing.T) {
	spec := tinySpec(t)
	m, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Winners) == 0 {
		t.Fatal("no winners marked")
	}
	for _, w := range m.Winners {
		if w.Strategy != "eager" && w.Strategy != "ranked" {
			t.Fatalf("winner %+v names unknown strategy", w)
		}
	}
	text := m.Text()
	for _, want := range []string{"tiny-sweep", "eager", "ranked", "deliv", "recov"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text rendering missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "*") {
		t.Fatalf("text rendering has no winner stars:\n%s", text)
	}
	md := m.Markdown()
	if !strings.Contains(md, "| --- |") || !strings.Contains(md, "| eager |") {
		t.Fatalf("markdown rendering malformed:\n%s", md)
	}
	csv := m.CSV()
	if !strings.HasPrefix(csv, "scenario,nodes,strategy,metric,") {
		t.Fatalf("csv missing header:\n%s", csv)
	}
	if !strings.Contains(csv, "tiny,20,ranked,delivery_rate,2,") {
		t.Fatalf("csv missing aggregate row:\n%s", csv)
	}
}

func TestSweepProgressCallback(t *testing.T) {
	spec := tinySpec(t)
	var calls []int
	spec.OnCell = func(c CellDone) {
		if c.Total != 4 {
			t.Errorf("total = %d, want 4", c.Total)
		}
		if c.Events == 0 || c.Duration <= 0 {
			t.Errorf("cell cost missing: events=%d duration=%v", c.Events, c.Duration)
		}
		if c.Scenario == "" || c.Strategy == "" {
			t.Errorf("cell identity missing: %+v", c)
		}
		calls = append(calls, c.Done)
	}
	if _, err := spec.Run(); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 4 || calls[len(calls)-1] != 4 {
		t.Fatalf("progress calls = %v, want 1..4", calls)
	}
}

// TestNoWinnerOnTies: identical means across strategies must not star a
// winner — ties at 100% delivery are the common case, and starring the
// first-listed strategy would read as a real difference.
func TestNoWinnerOnTies(t *testing.T) {
	spec := tinySpec(t)
	m, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Winners {
		means := make(map[float64]bool)
		for _, r := range m.Rows {
			if r.Scenario == w.Scenario && r.Nodes == w.Nodes {
				if a, ok := r.Metrics[w.Metric]; ok && a.N > 0 {
					means[a.Mean] = true
				}
			}
		}
		if len(means) < 2 {
			t.Fatalf("winner %+v starred over identical means", w)
		}
	}
}

// TestAggregateCI95: the confidence half-width follows t·stddev/√n with
// the Student's t critical value for n−1 degrees of freedom (sweeps run
// 2–5 replicates, far from normal-approximation territory), and
// degenerates to 0 (undefined) below two samples instead of the
// infinity the raw estimator returns — JSON cannot carry Inf.
func TestAggregateCI95(t *testing.T) {
	a := aggregateSamples([]float64{10, 12, 14, 16})
	if a.CI95 <= 0 {
		t.Fatalf("CI95 = %v, want > 0", a.CI95)
	}
	want := 3.182 * a.StdDev / 2 // t(df=3) = 3.182, √4 = 2
	if diff := a.CI95 - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("CI95 = %v, want %v", a.CI95, want)
	}
	// Two replicates: t(df=1) = 12.706, not 1.96 — the z-interval would
	// claim significance 6.5× too eagerly.
	pair := aggregateSamples([]float64{10, 12})
	if want := 12.706 * pair.StdDev / math.Sqrt2; math.Abs(pair.CI95-want) > 1e-9 {
		t.Fatalf("2-replicate CI95 = %v, want %v", pair.CI95, want)
	}
	if single := aggregateSamples([]float64{10}); single.CI95 != 0 {
		t.Fatalf("single-sample CI95 = %v, want 0", single.CI95)
	}
}

// TestWinnerSignificance pins the §5.4 convention: a winner is
// significant exactly when its 95% confidence interval intersects no
// competitor's interval.
func TestWinnerSignificance(t *testing.T) {
	build := func(aSamples, bSamples []float64) *Matrix {
		m := &Matrix{Strategies: []string{"a", "b"}}
		m.Rows = []Row{
			{Scenario: "s", Strategy: "a", Metrics: map[string]Agg{"delivery_rate": aggregateSamples(aSamples)}},
			{Scenario: "s", Strategy: "b", Metrics: map[string]Agg{"delivery_rate": aggregateSamples(bSamples)}},
		}
		m.findWinners()
		return m
	}

	// Clearly separated: tight samples, far apart.
	m := build([]float64{0.99, 0.99, 0.99}, []float64{0.50, 0.50, 0.51})
	if len(m.Winners) != 1 {
		t.Fatalf("winners = %+v", m.Winners)
	}
	if w := m.Winners[0]; w.Strategy != "a" || !w.Significant {
		t.Fatalf("separated intervals not significant: %+v", w)
	}

	// Overlapping: wide spreads around close means.
	m = build([]float64{0.7, 0.95, 0.8}, []float64{0.65, 0.9, 0.85})
	if len(m.Winners) != 1 {
		t.Fatalf("winners = %+v", m.Winners)
	}
	if w := m.Winners[0]; w.Significant {
		t.Fatalf("overlapping intervals marked significant: %+v", w)
	}

	// Single replicate: interval undefined, never significant.
	m = build([]float64{0.99}, []float64{0.5})
	if len(m.Winners) != 1 || m.Winners[0].Significant {
		t.Fatalf("undefined interval marked significant: %+v", m.Winners)
	}

	// Rendering: the significant winner gets "*", the rest "~".
	m = build([]float64{0.99, 0.99, 0.99}, []float64{0.50, 0.50, 0.51})
	m.Replicates = 3
	text := m.Text()
	if !strings.Contains(text, "*") {
		t.Fatalf("no star for a significant winner:\n%s", text)
	}
	m = build([]float64{0.7, 0.95, 0.8}, []float64{0.65, 0.9, 0.85})
	m.Replicates = 3
	if text := m.Text(); !strings.Contains(text, "~") {
		t.Fatalf("no tilde for an insignificant winner:\n%s", text)
	}
}

// TestSweepAbortsOnFailure: a failing cell must stop queued cells from
// starting — the error surfaces without running the rest of the grid.
func TestSweepAbortsOnFailure(t *testing.T) {
	sc, err := scenario.ParseString(`{
		"name": "fixed-sender", "nodes": 20, "topology_scale": 8, "drain": "2s",
		"phases": [{"name": "p", "duration": "4s",
			"traffic": [{"kind": "constant", "rate": 2,
			             "senders": "fixed", "fixed_senders": [15]}]}]
	}`)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Strategies: []string{"eager"},
		Scenarios:  []ScenarioRef{{Spec: &sc}},
		Replicates: 8,
		// The axis shrinks the overlay below the fixed sender index, so
		// every cell fails validation inside scenario.New.
		Nodes:   []int{10},
		Workers: 1,
	}
	if err := spec.Resolve(""); err != nil {
		t.Fatal(err)
	}
	ran := 0
	spec.OnCell = func(c CellDone) { ran = c.Done }
	if _, err := spec.Run(); err == nil {
		t.Fatal("invalid cells did not fail the sweep")
	}
	if ran > 1 {
		t.Fatalf("%d cells ran after the first failure", ran)
	}
}

func TestSweepValidation(t *testing.T) {
	for name, raw := range map[string]string{
		"no scenarios":     `{"strategies": ["flat"]}`,
		"negative seed":    `{"scenarios": ["steady-poisson"], "base_seed": -1}`,
		"bad strategy":     `{"strategies": ["bogus"], "scenarios": ["steady-poisson"]}`,
		"bad builtin":      `{"scenarios": ["no-such-archetype"]}`,
		"bad nodes":        `{"scenarios": ["steady-poisson"], "nodes": [-5]}`,
		"unknown field":    `{"scenarios": ["steady-poisson"], "bogus": 1}`,
		"retired key":      `{"scenarios": ["steady-poisson"], "full_trace": true}`,
		"ambiguous ref":    `{"scenarios": [{"builtin": "steady-poisson", "file": "x.json"}]}`,
		"duplicate names":  `{"scenarios": ["steady-poisson", "steady-poisson"]}`,
		"unnamed inline":   `{"scenarios": [{"spec": {"phases": [{"duration": "1s"}]}}]}`,
		"bad inline phase": `{"scenarios": [{"spec": {"name": "x", "phases": []}}]}`,
	} {
		if _, err := Parse(strings.NewReader(raw), ""); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSweepNodesAxis: the overlay-size axis multiplies the grid and
// overrides each scenario's own size.
func TestSweepNodesAxis(t *testing.T) {
	spec := tinySpec(t)
	spec.Strategies = []string{"eager"}
	spec.Replicates = 1
	spec.BaseSeed = 1
	spec.Nodes = []int{15, 25}
	m, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 2 {
		t.Fatalf("%d cells, want 2 (one per axis value)", len(m.Cells))
	}
	if m.Cells[0].Nodes != 15 || m.Cells[1].Nodes != 25 {
		t.Fatalf("axis nodes = %d, %d, want 15, 25", m.Cells[0].Nodes, m.Cells[1].Nodes)
	}
}

// TestResolveIdempotent: re-resolving after flag-style overrides must
// keep already-loaded scenario specs instead of re-reading them.
func TestResolveIdempotent(t *testing.T) {
	spec := tinySpec(t)
	before := spec.Scenarios[0].resolved
	if before == nil {
		t.Fatal("tinySpec not resolved")
	}
	if err := spec.Resolve("/nonexistent"); err != nil {
		t.Fatal(err)
	}
	if spec.Scenarios[0].resolved != before {
		t.Fatal("re-resolve replaced the loaded scenario spec")
	}
}

// TestScenarioRefShorthand: a bare JSON string is a builtin reference and
// round-trips as one.
func TestScenarioRefShorthand(t *testing.T) {
	spec, err := Parse(strings.NewReader(`{"scenarios": ["steady-poisson"]}`), "")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Scenarios[0].Builtin != "steady-poisson" {
		t.Fatalf("shorthand not parsed: %+v", spec.Scenarios[0])
	}
	if len(spec.Strategies) != 5 {
		t.Fatalf("default strategies = %v, want the paper's five", spec.Strategies)
	}
	enc, err := spec.Scenarios[0].MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != `"steady-poisson"` {
		t.Fatalf("shorthand does not round-trip: %s", enc)
	}
}

// TestMatrixByteIdenticalWithObs pins the sweep-level determinism rule:
// a sweep with a shared registry and event log attached produces a
// byte-identical matrix to one without. Cells share the registry
// concurrently, so this also exercises cross-cell aggregation.
func TestMatrixByteIdenticalWithObs(t *testing.T) {
	run := func(attach bool) ([]byte, *obs.Registry) {
		spec := tinySpec(t)
		spec.Workers = 2
		var reg *obs.Registry
		if attach {
			reg = obs.NewRegistry()
			spec.Obs = reg
			spec.EventLog = obs.NewEventLog(io.Discard, reg)
		}
		m, err := spec.Run()
		if err != nil {
			t.Fatal(err)
		}
		enc, err := m.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return enc, reg
	}

	plain, _ := run(false)
	observed, reg := run(true)
	if !bytes.Equal(plain, observed) {
		t.Fatal("sweep matrix changed with obs attached")
	}
	if v, _ := reg.Value("sweep_cells_done_total"); v != 4 {
		t.Fatalf("sweep_cells_done_total = %v, want 4", v)
	}
	if v, _ := reg.Value("sweep_workers_busy"); v != 0 {
		t.Fatalf("sweep_workers_busy = %v after run, want 0", v)
	}
	// All four cells' simulations aggregated into the shared counters.
	if v, _ := reg.Value("sim_events_total"); v <= 0 {
		t.Fatalf("sim_events_total = %v, want > 0", v)
	}
	if v, ok := reg.Value("sweep_cell_seconds"); !ok || v != 4 {
		t.Fatalf("sweep_cell_seconds count = %v (ok=%v), want 4 observations", v, ok)
	}
}
