package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// quickSize is the reduced run every claim plays in `go test`: the
// orderings must hold there too. Floors, ceilings and tolerances were
// chosen at paperSize and are judged there (CI regenerates
// REPRODUCTION.md); at this size they need only a verdict.
var quickSize = size{nodes: 40, messages: 40, scale: 8}

func mustClaims(t *testing.T) *claimList {
	t.Helper()
	l, err := loadClaims()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func find(t *testing.T, l *claimList, id string) claim {
	t.Helper()
	for _, c := range l.Claims {
		if c.ID == id {
			return c
		}
	}
	t.Fatalf("claims.json has no %s", id)
	return claim{}
}

// judgeOne plays one claim at quickSize on its own seeds.
func judgeOne(t *testing.T, l *claimList, c claim) verdict {
	t.Helper()
	vs, err := l.evaluate([]*claim{&c}, quickSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	return vs[0]
}

// TestClaimsQuick plays every claim at quickSize: each gets a verdict
// from a metric its runs report, and each ordering holds.
func TestClaimsQuick(t *testing.T) {
	l := mustClaims(t)
	claims := make([]*claim, len(l.Claims))
	for i := range l.Claims {
		claims[i] = &l.Claims[i]
	}
	vs, err := l.evaluate(claims, quickSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		t.Run(v.c.ID, func(t *testing.T) {
			for i, a := range v.runs {
				if a.N != len(v.seeds) || math.IsNaN(a.Mean) {
					t.Fatalf("run %s: %d samples, mean %v", label(v.c.Runs[i]), a.N, a.Mean)
				}
			}
			switch v.c.Cmp {
			case "increasing", "decreasing", "below":
				if !v.holds {
					t.Errorf("%s %s fails at %d nodes: means %v, refs %v",
						v.c.Metric, v.rule(), quickSize.nodes, means(v.runs), v.refs)
				}
			default:
				t.Logf("%s at %d nodes (bounds are judged at 100): %s", v.rule(), quickSize.nodes, v.word())
			}
		})
	}
}

// TestRadiusUnboundedFailsFig4: with ρ at the largest latency, radius
// pushes eagerly to every neighbour, its structure is gone and Fig. 4's
// ordering must fail.
func TestRadiusUnboundedFailsFig4(t *testing.T) {
	l := mustClaims(t)
	c := find(t, l, fig4)
	if v := judgeOne(t, l, c); !v.holds {
		t.Fatalf("%s fails as written: %v", fig4, means(v.runs))
	}
	last := len(c.Runs) - 1
	var run map[string]any
	if err := json.Unmarshal(c.Runs[last], &run); err != nil || run["strategy"] != "radius" {
		t.Fatalf("last run of %s is %s, want radius", fig4, c.Runs[last])
	}
	run["radius_quantile"] = 1
	raw, _ := json.Marshal(run)
	c.Runs = append(c.Runs[:last:last], raw)
	if v := judgeOne(t, l, c); v.holds {
		t.Fatalf("%s holds with radius_quantile 1: %v", fig4, means(v.runs))
	}
}

// TestFloorAboveMinimumFails raises a floor claim's floor just above the
// smallest mean it measured: the verdict must turn.
func TestFloorAboveMinimumFails(t *testing.T) {
	l := mustClaims(t)
	c := find(t, l, "fig5b-deliveries-40")
	v := judgeOne(t, l, c)
	lowest := math.Inf(1)
	for _, a := range v.runs {
		lowest = min(lowest, a.Mean)
	}
	floor := lowest
	c.Min = &floor
	if !c.judge(means(v.runs), nil) {
		t.Fatalf("floor at the minimum %v fails", lowest)
	}
	floor = math.Nextafter(lowest, 2)
	if c.judge(means(v.runs), nil) {
		t.Fatalf("floor %v above the minimum %v holds", floor, lowest)
	}
}

// TestJudge runs every comparator on values that hold and values that
// fail, so an evaluator that always answers "holds" cannot pass.
func TestJudge(t *testing.T) {
	lo, hi := 0.9, 1.1
	for _, tc := range []struct {
		c          claim
		runs, refs []float64
		want       bool
	}{
		{claim{Cmp: "increasing"}, []float64{1, 2, 3}, nil, true},
		{claim{Cmp: "increasing"}, []float64{1, 3, 3}, nil, false},
		{claim{Cmp: "decreasing"}, []float64{3, 2, 1}, nil, true},
		{claim{Cmp: "decreasing"}, []float64{3, 1, 2}, nil, false},
		{claim{Cmp: "at_least", Min: &lo}, []float64{0.9, 1}, nil, true},
		{claim{Cmp: "at_least", Min: &lo}, []float64{1, 0.89}, nil, false},
		{claim{Cmp: "at_most", Max: &hi}, []float64{1.1, 1}, nil, true},
		{claim{Cmp: "at_most", Max: &hi}, []float64{1.11}, nil, false},
		{claim{Cmp: "below"}, []float64{1, 2}, []float64{1.5, 2.5}, true},
		{claim{Cmp: "below"}, []float64{1, 2}, []float64{1.5, 2}, false},
		{claim{Cmp: "ratio", Min: &lo, Max: &hi}, []float64{10, 21}, []float64{10, 20}, true},
		{claim{Cmp: "ratio", Min: &lo, Max: &hi}, []float64{10, 23}, []float64{10, 20}, false},
		{claim{Cmp: "ratio", Min: &lo}, []float64{5}, []float64{0}, false},
		{claim{Cmp: "at_least", Min: &lo}, []float64{math.NaN()}, nil, false},
	} {
		if got := tc.c.judge(tc.runs, tc.refs); got != tc.want {
			t.Errorf("%s %v against %v: %v, want %v", tc.c.Cmp, tc.runs, tc.refs, got, tc.want)
		}
	}
}

// TestClaimListValidates rejects entries outside the closed comparator set
// or missing what their comparator needs.
func TestClaimListValidates(t *testing.T) {
	one := 1.0
	run := []json.RawMessage{[]byte(`{}`)}
	for _, c := range []claim{
		{ID: "x", Metric: "m", Cmp: "roughly", Runs: run, Seeds: []int64{1}},
		{ID: "x", Metric: "m", Cmp: "increasing", Runs: run, Seeds: []int64{1}},
		{ID: "x", Metric: "m", Cmp: "at_least", Runs: run, Seeds: []int64{1}},
		{ID: "x", Metric: "m", Cmp: "ratio", Min: &one, Runs: run, Seeds: []int64{1}},
		{ID: "x", Metric: "m", Cmp: "below", Runs: run},
	} {
		if c.valid() {
			t.Errorf("%+v is valid", c)
		}
	}
}

// TestSpecOverlay: an overlay's keys replace the base's whole, and the
// resize scales nodes and every phase and churn window.
func TestSpecOverlay(t *testing.T) {
	l := mustClaims(t)
	spec, err := l.spec([]byte(`{"strategy": "ttl", "nodes": 200, "phases": [
		{"name": "fail", "duration": "1s", "churn": [{"kind": "crash-wave", "fraction": 0.1}]},
		{"name": "traffic", "duration": "200s", "traffic": [{"kind": "poisson", "rate": 2}],
		 "churn": [{"kind": "join-wave", "fraction": 0.1, "at": "10s", "over": "100s"}]}]}`), 7, quickSize)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Strategy != "ttl" || spec.Seed != 7 || spec.Nodes != 80 || spec.TopologyScale != 8 || len(spec.Phases) != 2 {
		t.Fatalf("spec = %+v", spec)
	}
	traffic := spec.Phases[1]
	if spec.Phases[0].Duration.D().Milliseconds() != 100 || traffic.Duration.D().Seconds() != 20 ||
		traffic.Churn[0].At.D().Seconds() != 1 || traffic.Churn[0].Over.D().Seconds() != 10 {
		t.Fatalf("phases = %+v", spec.Phases)
	}
	if _, err := l.spec([]byte(`{"strategy": "ttl", "ttl_round": 2}`), 1, paperSize); err == nil ||
		!strings.Contains(err.Error(), "ttl_round") {
		t.Fatalf("unknown overlay key: %v", err)
	}
}
