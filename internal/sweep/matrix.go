package sweep

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"emcast/internal/scenario"
	"emcast/internal/stats"
)

// Agg summarises one metric over a cell group's replicates.
type Agg struct {
	// N is the number of replicates that reported the metric
	// (conditional metrics like recovery_ms can be missing from some).
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// CI95 is the 95% confidence half-width of the mean, using the
	// Student's t critical value for the replicate count (at the 2–5
	// replicates sweeps typically run, the normal approximation's 1.96
	// would understate the width up to 6.5×); 0 when fewer than two
	// replicates reported — an undefined interval, which also makes any
	// winner over it insignificant. The paper claims a difference only
	// when intervals do not intersect (§5.4); Winner.Significant
	// applies exactly that rule.
	CI95 float64 `json:"ci95"`
}

// Aggregate reduces samples to an Agg: the replicate statistics of one
// matrix row, and of one run of a paper claim over its seeds.
func Aggregate(samples []float64) Agg {
	var w stats.Welford
	a := Agg{N: len(samples)}
	for i, x := range samples {
		w.Add(x)
		if i == 0 || x < a.Min {
			a.Min = x
		}
		if i == 0 || x > a.Max {
			a.Max = x
		}
	}
	a.Mean, a.StdDev = w.Mean(), w.StdDev()
	if a.N >= 2 {
		a.CI95 = w.CI95T()
	}
	return a
}

// interval returns the aggregate's 95% confidence interval, and whether
// it is defined (it needs at least two replicates).
func (a Agg) interval() (stats.Interval, bool) {
	return stats.Interval{Mean: a.Mean, Half: a.CI95}, a.N >= 2
}

// Cell is one executed run of the grid with its flattened metrics.
type Cell struct {
	Scenario  string             `json:"scenario"`
	Nodes     int                `json:"nodes"`
	Strategy  string             `json:"strategy"`
	Seed      int64              `json:"seed"`
	Replicate int                `json:"replicate"`
	Metrics   map[string]float64 `json:"metrics"`
}

// Row aggregates one (scenario, nodes, strategy) group over its seed
// replicates.
type Row struct {
	Scenario   string         `json:"scenario"`
	Nodes      int            `json:"nodes"`
	Strategy   string         `json:"strategy"`
	Replicates int            `json:"replicates"`
	Seeds      []int64        `json:"seeds"`
	Metrics    map[string]Agg `json:"metrics"`
}

// Winner marks the best strategy of one (scenario, nodes) group for one
// metric, by mean over replicates. Ties go to the strategy listed first.
type Winner struct {
	Scenario string  `json:"scenario"`
	Nodes    int     `json:"nodes"`
	Metric   string  `json:"metric"`
	Strategy string  `json:"strategy"`
	Mean     float64 `json:"mean"`
	// Significant is true when the winner's 95% confidence interval
	// intersects no competitor's interval — the paper's §5.4 convention
	// for claiming a difference. Winners over overlapping intervals are
	// still listed (the best mean is the best mean) but flagged as not
	// statistically separated.
	Significant bool `json:"significant"`
}

// Matrix is the aggregated result of a sweep.
type Matrix struct {
	Name       string   `json:"name,omitempty"`
	Strategies []string `json:"strategies"`
	Scenarios  []string `json:"scenarios"`
	NodesAxis  []int    `json:"nodes_axis,omitempty"`
	Replicates int      `json:"replicates"`
	BaseSeed   int64    `json:"base_seed"`
	Rows       []Row    `json:"rows"`
	Winners    []Winner `json:"winners,omitempty"`
	Cells      []Cell   `json:"cells"`
}

// metric directions: which way is better, for winner marking. Metrics
// listed in neither map get no winner. Top-5% link share counts as
// higher-better: concentrating traffic on few links is the emergent
// structure the paper is after.
var (
	lowerBetter = map[string]bool{
		"mean_latency_ms": true, "p95_latency_ms": true,
		"payload_per_msg": true, "control_frames": true,
		"duplicates": true, "recovery_ms": true,
	}
	higherBetter = map[string]bool{
		"delivery_rate": true, "atomic_rate": true,
		"joiner_coverage": true, "recovered": true,
		"top5_link_share": true,
	}
)

// aggregate reduces executed cells to the matrix.
func (s *Spec) aggregate(cells []cell, reports []*scenario.Report) *Matrix {
	m := &Matrix{
		Name:       s.Name,
		Strategies: s.Strategies,
		NodesAxis:  s.Nodes,
		Replicates: s.Replicates,
		BaseSeed:   s.BaseSeed,
	}
	for i := range s.Scenarios {
		m.Scenarios = append(m.Scenarios, s.Scenarios[i].resolved.Name)
	}

	for i := range cells {
		m.Cells = append(m.Cells, Cell{
			Scenario:  cells[i].scenario,
			Nodes:     cells[i].nodes,
			Strategy:  cells[i].strategy,
			Seed:      cells[i].seed,
			Replicate: cells[i].rep,
			Metrics:   cellMetrics(reports[i]),
		})
	}

	// Group replicates: cells arrive replicate-contiguous in scenario →
	// nodes → strategy order, so groups are contiguous runs.
	for start := 0; start < len(m.Cells); start += s.Replicates {
		group := m.Cells[start : start+s.Replicates]
		row := Row{
			Scenario:   group[0].Scenario,
			Nodes:      group[0].Nodes,
			Strategy:   group[0].Strategy,
			Replicates: s.Replicates,
			Metrics:    make(map[string]Agg),
		}
		for _, c := range group {
			row.Seeds = append(row.Seeds, c.Seed)
		}
		for _, key := range metricKeys(group) {
			var samples []float64
			for _, c := range group {
				if v, ok := c.Metrics[key]; ok {
					samples = append(samples, v)
				}
			}
			row.Metrics[key] = Aggregate(samples)
		}
		m.Rows = append(m.Rows, row)
	}

	m.findWinners()
	return m
}

// metricKeys returns the union of metric names over cells, sorted.
func metricKeys(cells []Cell) []string {
	set := make(map[string]bool)
	for _, c := range cells {
		for k := range c.Metrics {
			set[k] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// rowGroups partitions the rows into (scenario, nodes) groups, preserving
// order. Each group holds one row per strategy.
func (m *Matrix) rowGroups() [][]Row {
	var groups [][]Row
	for start := 0; start < len(m.Rows); start += len(m.Strategies) {
		end := start + len(m.Strategies)
		if end > len(m.Rows) {
			end = len(m.Rows)
		}
		groups = append(groups, m.Rows[start:end])
	}
	return groups
}

// findWinners marks the best strategy per (scenario, nodes, metric). A
// metric needs a direction, at least two strategies reporting it, and a
// non-degenerate spread (winners over identical means are noise).
func (m *Matrix) findWinners() {
	for _, group := range m.rowGroups() {
		keys := make(map[string]bool)
		for _, r := range group {
			for k := range r.Metrics {
				keys[k] = true
			}
		}
		names := make([]string, 0, len(keys))
		for k := range keys {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, key := range names {
			if !lowerBetter[key] && !higherBetter[key] {
				continue
			}
			bestIdx := -1
			for i, r := range group {
				a, ok := r.Metrics[key]
				if !ok || a.N == 0 {
					continue
				}
				if bestIdx < 0 {
					bestIdx = i
					continue
				}
				best := group[bestIdx].Metrics[key]
				if (lowerBetter[key] && a.Mean < best.Mean) ||
					(higherBetter[key] && a.Mean > best.Mean) {
					bestIdx = i
				}
			}
			if bestIdx < 0 {
				continue
			}
			reported, distinct := 0, false
			bestMean := group[bestIdx].Metrics[key].Mean
			for _, r := range group {
				if a, ok := r.Metrics[key]; ok && a.N > 0 {
					reported++
					if a.Mean != bestMean {
						distinct = true
					}
				}
			}
			if reported < 2 || !distinct {
				continue
			}
			// §5.4: the difference is claimed only when the winner's
			// 95% confidence interval intersects no competitor's.
			significant := true
			winInt, winDefined := group[bestIdx].Metrics[key].interval()
			for i, r := range group {
				a, ok := r.Metrics[key]
				if i == bestIdx || !ok || a.N == 0 {
					continue
				}
				otherInt, otherDefined := a.interval()
				if !winDefined || !otherDefined || winInt.Overlaps(otherInt) {
					significant = false
					break
				}
			}
			m.Winners = append(m.Winners, Winner{
				Scenario:    group[bestIdx].Scenario,
				Nodes:       group[bestIdx].Nodes,
				Metric:      key,
				Strategy:    group[bestIdx].Strategy,
				Mean:        group[bestIdx].Metrics[key].Mean,
				Significant: significant,
			})
		}
	}
}

// winner looks up the winner entry for a group metric, or nil.
func (m *Matrix) winner(scen string, nodes int, metric string) *Winner {
	for i := range m.Winners {
		w := &m.Winners[i]
		if w.Scenario == scen && w.Nodes == nodes && w.Metric == metric {
			return w
		}
	}
	return nil
}

// JSON renders the matrix as indented JSON. Map keys marshal sorted, so
// the output is byte-stable for identical (spec, seeds).
func (m *Matrix) JSON() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// CSV renders every aggregate as one scenario,nodes,strategy,metric row.
func (m *Matrix) CSV() string {
	var b strings.Builder
	b.WriteString("scenario,nodes,strategy,metric,n,mean,stddev,ci95,min,max\n")
	for _, r := range m.Rows {
		for _, key := range sortedKeys(r.Metrics) {
			a := r.Metrics[key]
			fmt.Fprintf(&b, "%s,%d,%s,%s,%d,%g,%g,%g,%g,%g\n",
				CSVEscape(r.Scenario), r.Nodes, r.Strategy, key,
				a.N, a.Mean, a.StdDev, a.CI95, a.Min, a.Max)
		}
	}
	return b.String()
}

func sortedKeys(m map[string]Agg) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// tableColumns are the metrics shown in the rendered comparison tables,
// in display order; the JSON and CSV carry the full set.
var tableColumns = []struct{ key, label string }{
	{"delivery_rate", "deliv"},
	{"atomic_rate", "atomic"},
	{"mean_latency_ms", "lat ms"},
	{"p95_latency_ms", "p95 ms"},
	{"payload_per_msg", "pay/msg"},
	{"top5_link_share", "top5"},
	{"recovery_ms", "recov ms"},
	{"recovered", "recov ok"},
}

// percentMetrics render as percentages.
var percentMetrics = map[string]bool{
	"delivery_rate": true, "atomic_rate": true,
	"top5_link_share": true, "joiner_coverage": true, "recovered": true,
}

// fmtAgg formats mean ± CI95 half-width for a table cell (the quantity
// §5.4 compares; stddev stays available in the CSV and JSON).
func fmtAgg(key string, a Agg) string {
	if a.N == 0 {
		return "-"
	}
	if percentMetrics[key] {
		return fmt.Sprintf("%.1f±%.1f%%", 100*a.Mean, 100*a.CI95)
	}
	return fmt.Sprintf("%.1f±%.1f", a.Mean, a.CI95)
}

// Tables renders one comparison table per (scenario, nodes) group:
// strategies as rows, headline metrics as columns, the per-metric winner
// starred.
func (m *Matrix) Tables() []*Table {
	var out []*Table
	for _, group := range m.rowGroups() {
		if len(group) == 0 {
			continue
		}
		title := fmt.Sprintf("%s · %d nodes · %d replicates (seeds %d..%d)",
			group[0].Scenario, group[0].Nodes, m.Replicates,
			m.BaseSeed, m.BaseSeed+int64(m.Replicates-1))
		t := &Table{Title: title, Header: []string{"strategy"}}
		for _, col := range tableColumns {
			present := false
			for _, r := range group {
				if a, ok := r.Metrics[col.key]; ok && a.N > 0 {
					present = true
					break
				}
			}
			if present {
				t.Header = append(t.Header, col.label)
			}
		}
		for _, r := range group {
			row := []string{r.Strategy}
			for _, col := range tableColumns {
				inHeader := false
				for _, h := range t.Header[1:] {
					if h == col.label {
						inHeader = true
						break
					}
				}
				if !inHeader {
					continue
				}
				cell := fmtAgg(col.key, r.Metrics[col.key])
				if w := m.winner(r.Scenario, r.Nodes, col.key); cell != "-" && w != nil && w.Strategy == r.Strategy {
					if w.Significant {
						cell += "*"
					} else {
						cell += "~"
					}
				}
				row = append(row, cell)
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out
}

// header describes the sweep in one line.
func (m *Matrix) header() string {
	name := m.Name
	if name == "" {
		name = "sweep"
	}
	return fmt.Sprintf("%s: %d strategies × %d scenarios × %d replicates = %d cells "+
		"(cells are mean±CI95; * = winner, CI95s separated; ~ = winner, CI95s overlap)",
		name, len(m.Strategies), len(m.Scenarios), m.Replicates, len(m.Cells))
}

// Text renders the matrix as aligned comparison tables.
func (m *Matrix) Text() string {
	var b strings.Builder
	b.WriteString(m.header() + "\n\n")
	for _, t := range m.Tables() {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String()
}

// Markdown renders the matrix as GitHub-flavoured markdown tables.
func (m *Matrix) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n\n", m.header())
	for _, t := range m.Tables() {
		b.WriteString(t.Markdown())
		b.WriteString("\n")
	}
	return b.String()
}
