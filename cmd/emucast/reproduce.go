package main

import (
	"bytes"
	"cmp"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strings"
	"time"

	"emcast/internal/scenario"
	"emcast/internal/sweep"
	"emcast/internal/topology"
)

// claimsJSON is the paper's evaluation as data. EXPERIMENTS.md "Claims"
// records how each bound in it was chosen.
//
//go:embed claims.json
var claimsJSON []byte

// claimList is claims.json: Base is the §5.3 workload every run
// overlays (one phase of 200 s of Poisson arrivals at 2 msg/s from
// round-robin senders, 256-byte payloads: 400 messages in expectation).
type claimList struct {
	Base   json.RawMessage `json:"base"`
	Claims []claim         `json:"claims"`
}

// claim is one result of the paper, judged on the means of its runs over
// its seeds.
type claim struct {
	ID      string `json:"id"`
	Section string `json:"section"`
	Text    string `json:"claim"`
	// Paper quotes the paper's own value.
	Paper string `json:"paper"`
	// Metric is a scenario.Metrics JSON key; payload_low, the payloads
	// per message a regular (not best-ranked) node sends, from the
	// oracle's payload split; or a topology.* statistic (§5.1) of the
	// network the run played on.
	Metric string `json:"metric"`
	// Cmp is increasing or decreasing along the runs, at_least Min,
	// at_most Max, below the reference, or ratio to the reference within
	// [Min, Max].
	Cmp string   `json:"cmp"`
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
	// Ref is the reference of below and ratio: a run overlay, or a number
	// (the paper's value). Without it each run is its own reference, read
	// on RefMetric.
	Ref       json.RawMessage `json:"ref,omitempty"`
	RefMetric string          `json:"ref_metric,omitempty"`
	// Runs are JSON overlays on Base. An overlay's keys replace the
	// base's whole, so an overlay with phases replaces the base's phases.
	Runs  []json.RawMessage `json:"runs"`
	Seeds []int64           `json:"seeds"`
}

// valid reports whether the claim has what its comparator needs.
func (c *claim) valid() bool {
	ref := c.Ref != nil || c.RefMetric != ""
	ok := map[string]bool{
		"increasing": len(c.Runs) > 1, "decreasing": len(c.Runs) > 1,
		"at_least": c.Min != nil, "at_most": c.Max != nil,
		"below": ref, "ratio": ref && (c.Min != nil || c.Max != nil),
	}[c.Cmp]
	return ok && c.ID != "" && c.Metric != "" && len(c.Runs) > 0 && len(c.Seeds) > 0
}

func loadClaims() (*claimList, error) {
	var l claimList
	dec := json.NewDecoder(bytes.NewReader(claimsJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		return nil, fmt.Errorf("claims.json: %v", err)
	}
	seen := map[string]bool{}
	for _, c := range l.Claims {
		if !c.valid() || seen[c.ID] {
			return nil, fmt.Errorf("claims.json: claim %q is repeated or lacks what %q needs", c.ID, c.Cmp)
		}
		seen[c.ID] = true
	}
	return &l, nil
}

// refRun reports whether the claim's reference is a run.
func (c *claim) refRun() bool { return len(c.Ref) > 0 && c.Ref[0] == '{' }

// size is the scale runs play at; claims are written at paperSize.
type size struct{ nodes, messages, scale int }

var paperSize = size{nodes: 100, messages: 400, scale: 1}

// spec decodes overlay onto a copy of the base Spec and resizes it.
func (l *claimList) spec(overlay json.RawMessage, seed int64, sz size) (scenario.Spec, error) {
	var keys, over map[string]json.RawMessage
	if err := json.Unmarshal(l.Base, &keys); err != nil {
		return scenario.Spec{}, err
	}
	if err := json.Unmarshal(overlay, &over); err != nil {
		return scenario.Spec{}, err
	}
	maps.Copy(keys, over)
	merged, _ := json.Marshal(keys) // valid raw messages always marshal
	spec, err := scenario.Parse(bytes.NewReader(merged))
	if err != nil {
		return scenario.Spec{}, err
	}
	spec.Seed = seed
	resize(&spec, sz)
	return spec, nil
}

// resize scales a Spec written at paperSize to sz: the overlay with the
// nodes, and every phase and churn window with the messages, so the
// arrivals at 2 msg/s still send sz.messages in expectation.
func resize(s *scenario.Spec, sz size) {
	s.Nodes = s.Nodes * sz.nodes / paperSize.nodes
	s.TopologyScale = sz.scale
	stretch := func(d *scenario.Duration) {
		*d = scenario.Duration(int64(*d) * int64(sz.messages) / int64(paperSize.messages))
	}
	for i := range s.Phases {
		stretch(&s.Phases[i].Duration)
		for j := range s.Phases[i].Churn {
			stretch(&s.Phases[i].Churn[j].At)
			stretch(&s.Phases[i].Churn[j].Over)
		}
	}
}

// label names a run: its overlay's name, or the overlay.
func label(overlay json.RawMessage) string {
	var named struct{ Name string }
	if json.Unmarshal(overlay, &named) == nil && named.Name != "" {
		return named.Name
	}
	var b bytes.Buffer
	if json.Compact(&b, overlay) != nil || b.String() == "{}" {
		return "base"
	}
	return b.String()
}

// cellValues reads a played run's metrics by JSON key, with the oracle's
// payload split and the §5.1 statistics of the network it played on.
func cellValues(spec scenario.Spec, rep *scenario.Report, eng *scenario.Engine) map[string]float64 {
	// Metrics is a struct of numbers: it marshals, and unmarshals into a
	// map of them.
	raw, _ := json.Marshal(rep.Overall)
	var v map[string]float64
	_ = json.Unmarshal(raw, &v)
	v["payload_low"], _ = eng.Runner().PayloadSplit()
	// Every transit router carries its stub domains' routers.
	tp := topology.DefaultParams().Scaled(spec.TopologyScale)
	routers := tp.TransitDomains * tp.TransitPerDomain * (1 + tp.StubDomainsPerTransit*tp.StubPerDomain)
	s := eng.Runner().Matrix().Stats(routers)
	v["topology.mean_hops"], v["topology.frac_hops_5_6"] = s.MeanHops, s.FracHops5to6
	v["topology.mean_latency_ms"] = float64(s.MeanLatency) / float64(time.Millisecond)
	v["topology.frac_latency_39_60"], v["topology.network_nodes"] = s.FracLat39to60, float64(s.NetworkNodes)
	return v
}

// verdict is one judged claim: each run's metric over the seeds, and
// each run's reference mean, labelled ref.
type verdict struct {
	c     *claim
	seeds []int64
	runs  []sweep.Agg
	refs  []float64
	ref   string
	holds bool
}

// evaluate plays the claims' runs at sz, each distinct (Spec, seed) once
// on sweep's worker pool, and judges each claim on the means. seed, when
// positive, replaces every claim's seeds.
func (l *claimList) evaluate(claims []*claim, sz size, seed int64) ([]verdict, error) {
	index := map[string]int{}
	var specs []scenario.Spec
	vs := make([]verdict, len(claims))
	cells := make([][][]int, len(claims)) // claim → run, then a reference run → seed
	for i, c := range claims {
		vs[i] = verdict{c: c, seeds: c.Seeds}
		if seed > 0 {
			vs[i].seeds = []int64{seed}
		}
		runs := c.Runs
		if c.refRun() {
			runs = append(runs[:len(runs):len(runs)], c.Ref)
		}
		for _, run := range runs {
			var row []int
			for _, s := range vs[i].seeds {
				spec, err := l.spec(run, s, sz)
				if err != nil {
					return nil, fmt.Errorf("claim %s: run %s: %v", c.ID, label(run), err)
				}
				spec.Name = ""
				key, _ := json.Marshal(spec) // a parsed Spec marshals
				k, ok := index[string(key)]
				if !ok {
					k, index[string(key)] = len(specs), len(specs)
					specs = append(specs, spec)
				}
				row = append(row, k)
			}
			cells[i] = append(cells[i], row)
		}
	}
	values := make([]map[string]float64, len(specs))
	err := sweep.Play(specs, 0, func(k int, rep *scenario.Report, eng *scenario.Engine) {
		values[k] = cellValues(specs[k], rep, eng)
	})
	if err != nil {
		return nil, err
	}

	for i, c := range claims {
		v := &vs[i]
		agg := func(row []int, metric string) (sweep.Agg, error) {
			samples := make([]float64, len(row))
			for k, cl := range row {
				x, ok := values[cl][metric]
				if !ok {
					return sweep.Agg{}, fmt.Errorf("no metric %q", metric)
				}
				samples[k] = x
			}
			return sweep.Aggregate(samples), nil
		}
		for r := range c.Runs {
			a, err := agg(cells[i][r], c.Metric)
			if err != nil {
				return nil, fmt.Errorf("claim %s: %v", c.ID, err)
			}
			var ref sweep.Agg
			switch {
			case c.refRun():
				v.ref = label(c.Ref)
				ref, err = agg(cells[i][len(c.Runs)], cmp.Or(c.RefMetric, c.Metric))
			case c.Ref != nil:
				v.ref = "paper " + string(c.Ref)
				err = json.Unmarshal(c.Ref, &ref.Mean)
			case c.RefMetric != "":
				v.ref = "own " + c.RefMetric
				ref, err = agg(cells[i][r], c.RefMetric)
			}
			if err != nil {
				return nil, fmt.Errorf("claim %s: ref: %v", c.ID, err)
			}
			v.runs, v.refs = append(v.runs, a), append(v.refs, ref.Mean)
		}
		v.holds = c.judge(means(v.runs), v.refs)
	}
	return vs, nil
}

func means(as []sweep.Agg) []float64 {
	out := make([]float64, len(as))
	for i, a := range as {
		out[i] = a.Mean
	}
	return out
}

// judge applies the claim's comparator to the runs' means; refs holds
// each run's reference mean.
func (c *claim) judge(runs, refs []float64) bool {
	within := func(x float64) bool {
		return (c.Min == nil || x >= *c.Min) && (c.Max == nil || x <= *c.Max)
	}
	for i, x := range runs {
		ok := !math.IsNaN(x)
		switch c.Cmp {
		case "increasing":
			ok = ok && (i == 0 || x > runs[i-1])
		case "decreasing":
			ok = ok && (i == 0 || x < runs[i-1])
		case "at_least", "at_most":
			ok = ok && within(x)
		case "below":
			ok = ok && x < refs[i]
		case "ratio":
			ok = ok && refs[i] != 0 && within(x/refs[i])
		}
		if !ok {
			return false
		}
	}
	return true
}

// word is the verdict as REPRODUCTION.md prints it.
func (v *verdict) word() string {
	if v.holds {
		return "holds"
	}
	return "fails"
}

// rule states the comparator with its reference and bounds.
func (v *verdict) rule() string {
	s := v.c.Cmp + map[string]string{"below": " ", "ratio": " to "}[v.c.Cmp] + v.ref
	if v.c.Min != nil {
		s += ", min " + num(*v.c.Min)
	}
	if v.c.Max != nil {
		s += ", max " + num(*v.c.Max)
	}
	return s
}

func num(x float64) string { return fmt.Sprintf("%.5g", x) }

// rows lays a verdict out, one row per run, its numbers printed by f.
func (v *verdict) rows(f func(float64) string) [][]string {
	var out [][]string
	for i, run := range v.c.Runs {
		a, ref := v.runs[i], ""
		if v.ref != "" {
			ref = f(v.refs[i])
		}
		out = append(out, []string{label(run), fmt.Sprint(a.N), f(a.Mean), f(a.CI95), f(a.Min), f(a.Max), ref})
	}
	return out
}

var rowHeader = []string{"run", "n", "mean", "ci95", "min", "max", "ref"}

// markdown renders the verdicts as REPRODUCTION.md.
func markdown(w io.Writer, vs []verdict, sz size) {
	held := 0
	sum := &sweep.Table{Header: []string{"claim", "section", "verdict"}}
	for _, v := range vs {
		if v.holds {
			held++
		}
		sum.AddRow("`"+v.c.ID+"`", v.c.Section, v.word())
	}
	fmt.Fprintf(w, "# Paper claims\n\nGenerated by `emucast reproduce` at %d nodes, %d messages "+
		"and topology scale %d; do not edit. Every run is the §5.3 base Spec of "+
		"`cmd/emucast/claims.json` under the overlay shown, played once per seed. A claim "+
		"is judged on the runs' means over its seeds.\n\n%d of %d claims hold.\n\n%s",
		sz.nodes, sz.messages, sz.scale, held, len(vs), sum.Markdown())
	for _, v := range vs {
		t := &sweep.Table{Header: rowHeader, Rows: v.rows(num)}
		fmt.Fprintf(w, "\n## `%s` · %s · %s\n\n%s Paper: %s.\n\n`%s`: %s; seeds %v.\n\n%s",
			v.c.ID, v.c.Section, v.word(), v.c.Text, v.c.Paper, v.c.Metric, v.rule(), v.seeds, t.Markdown())
	}
}

// csvRows renders every verdict's runs, one CSV row each.
func csvRows(vs []verdict) string {
	t := &sweep.Table{Header: append([]string{"claim", "verdict", "metric"}, rowHeader...)}
	for _, v := range vs {
		for _, r := range v.rows(func(x float64) string { return fmt.Sprint(x) }) {
			t.AddRow(append([]string{v.c.ID, v.word(), v.c.Metric}, r...)...)
		}
	}
	return t.CSV()
}

// sizeFlags registers the flags that scale the claims' runs.
func sizeFlags(fs *flag.FlagSet) func() size {
	nodes := fs.Int("nodes", paperSize.nodes, "number of protocol nodes (a run written for 200 plays twice this)")
	messages := fs.Int("messages", paperSize.messages, "expected multicast messages per run")
	scale := fs.Int("scale", paperSize.scale, "topology scale-down factor (1 = paper-size)")
	return func() size { return size{*nodes, *messages, *scale} }
}

// runReproduce implements `emucast reproduce [claim-id…]`: it judges
// every claim, or the named ones, prints REPRODUCTION.md (or CSV) and
// fails when a claim fails.
func runReproduce(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("emucast reproduce", flag.ContinueOnError)
	fs.SetOutput(errOut)
	sz := sizeFlags(fs)
	seed := fs.Int64("seed", 0, "play every claim on this one seed instead of its own")
	csv := fs.Bool("csv", false, "emit CSV instead of markdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	l, err := loadClaims()
	if err != nil {
		return err
	}
	var claims []*claim
	for i := range l.Claims {
		if fs.NArg() == 0 || slices.Contains(fs.Args(), l.Claims[i].ID) {
			claims = append(claims, &l.Claims[i])
		}
	}
	if len(claims) < max(fs.NArg(), 1) {
		return fmt.Errorf("unknown claim among %v", fs.Args())
	}
	vs, err := l.evaluate(claims, sz(), *seed)
	if err != nil {
		return err
	}
	if *csv {
		fmt.Fprint(out, csvRows(vs))
	} else {
		markdown(out, vs, sz())
	}
	failed := 0
	for _, v := range vs {
		if !v.holds {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d claims fail", failed, len(vs))
	}
	return nil
}

// fig4 is the claim whose runs `emucast map` plays.
const fig4 = "fig4-top5-order"

// runMap implements `emucast map`: the per-connection payload loads, with
// plane coordinates, of Fig. 4's runs (the data behind the paper's
// emergent-structure maps) as CSV.
func runMap(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("emucast map", flag.ContinueOnError)
	fs.SetOutput(errOut)
	sz := sizeFlags(fs)
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	l, err := loadClaims()
	if err != nil {
		return err
	}
	i := slices.IndexFunc(l.Claims, func(c claim) bool { return c.ID == fig4 })
	if i < 0 {
		return fmt.Errorf("claims.json has no %s", fig4)
	}
	var specs []scenario.Spec
	for _, run := range l.Claims[i].Runs {
		spec, err := l.spec(run, *seed, sz())
		if err != nil {
			return err
		}
		specs = append(specs, spec)
	}
	rows := make([]strings.Builder, len(specs))
	err = sweep.Play(specs, 0, func(i int, _ *scenario.Report, eng *scenario.Engine) {
		for _, l := range eng.Runner().LinkLoads() {
			fmt.Fprintf(&rows[i], "%s,%d,%d,%.1f,%.1f,%.1f,%.1f,%d,%d\n",
				specs[i].Strategy, l.A, l.B, l.AX, l.AY, l.BX, l.BY, l.Payloads, l.Bytes)
		}
	})
	if err != nil {
		return err
	}
	fmt.Fprint(out, "strategy,nodeA,nodeB,ax,ay,bx,by,payloads,bytes\n")
	for i := range rows {
		fmt.Fprint(out, rows[i].String())
	}
	return nil
}
