package live

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"emcast/internal/scenario"
	"emcast/internal/sweep"
)

// Tolerance bounds the acceptable live-vs-sim deviation of one metric: a
// diff is within tolerance when |live−sim| <= Abs + Rel·|sim|.
type Tolerance struct {
	Abs float64 `json:"abs"`
	Rel float64 `json:"rel"`
}

// defaultTolerances covers the metrics where the simulator's prediction
// is expected to transfer to real sockets: protocol-structural quantities
// (what fraction of nodes a message reaches, whether dissemination
// recovers, how many payload copies the strategy spends). Latency
// metrics are deliberately absent — the simulator models a transit-stub
// WAN while the live fleet runs on loopback, so latency is reported
// informationally, never checked.
func defaultTolerances() map[string]Tolerance {
	return map[string]Tolerance{
		"delivery_rate":   {Abs: 0.05},
		"atomic_rate":     {Abs: 0.20},
		"payload_per_msg": {Abs: 1.0, Rel: 0.5},
		"recovered":       {}, // exact agreement: both recover, or neither
	}
}

// MetricDiff is one metric's sim-vs-live comparison.
type MetricDiff struct {
	Metric string  `json:"metric"`
	Sim    float64 `json:"sim"`
	Live   float64 `json:"live"`
	Delta  float64 `json:"delta"` // live − sim
	// Checked metrics have a tolerance and gate Diff.OK; unchecked ones
	// are informational (latency on loopback vs a modeled WAN, counters
	// that scale with transport details).
	Checked bool `json:"checked"`
	Within  bool `json:"within"`
}

// SectionDiff compares one report section (overall, or one phase).
type SectionDiff struct {
	Name string       `json:"name"`
	Rows []MetricDiff `json:"rows"`
	OK   bool         `json:"ok"`
}

// Diff is the metric-by-metric comparison of a live report against a
// simulator prediction for the same spec.
type Diff struct {
	Scenario   string               `json:"scenario"`
	Strategy   string               `json:"strategy"`
	Nodes      int                  `json:"nodes"`
	Tolerances map[string]Tolerance `json:"tolerances"`
	Overall    SectionDiff          `json:"overall"`
	Phases     []SectionDiff        `json:"phases"`
	// OK is true when every checked metric of every section is within
	// tolerance.
	OK bool `json:"ok"`
}

// diffOrder fixes the row order of every section.
var diffOrder = []string{
	"messages_sent",
	"delivery_rate",
	"atomic_rate",
	"recovered",
	"recovery_ms",
	"payload_per_msg",
	"top5_link_share",
	"duplicates",
	"control_frames",
	"mean_latency_ms",
	"p95_latency_ms",
}

// diffValues flattens the comparable figures of one Metrics block.
// recovered encodes the recovery verdict: 1 when the section recovered
// (or had no disruption to recover from), 0 when it never did; it is the
// sign of RecoveryMS, which makes "sim predicts recovery, live never
// recovers" a checkable disagreement even though the raw milliseconds
// are timeline-dependent.
func diffValues(m *scenario.Metrics) map[string]float64 {
	v := map[string]float64{
		"messages_sent":   float64(m.MessagesSent),
		"delivery_rate":   m.DeliveryRate,
		"atomic_rate":     m.AtomicRate,
		"payload_per_msg": m.PayloadPerMsg,
		"top5_link_share": m.Top5LinkShare,
		"duplicates":      float64(m.Duplicates),
		"control_frames":  float64(m.ControlFrames),
		"mean_latency_ms": m.MeanLatencyMS,
		"p95_latency_ms":  m.P95LatencyMS,
	}
	if m.RecoveryMS < 0 {
		v["recovered"] = 0
	} else {
		v["recovered"] = 1
	}
	if m.RecoveryMS > 0 {
		v["recovery_ms"] = m.RecoveryMS
	}
	return v
}

// Compare diffs a live report against a simulator report for the same
// spec, metric by metric with the given tolerances (nil means
// defaultTolerances). Metrics without a tolerance entry are reported but
// never gate OK.
func Compare(simRep, liveRep *scenario.Report, tol map[string]Tolerance) *Diff {
	if tol == nil {
		tol = defaultTolerances()
	}
	d := &Diff{
		Scenario:   liveRep.Scenario,
		Strategy:   liveRep.Strategy,
		Nodes:      liveRep.Nodes,
		Tolerances: tol,
		OK:         true,
	}
	d.Overall = compareSection("overall", &simRep.Overall, &liveRep.Overall, tol)
	d.OK = d.OK && d.Overall.OK
	n := len(simRep.Phases)
	if len(liveRep.Phases) < n {
		n = len(liveRep.Phases)
	}
	for i := 0; i < n; i++ {
		sec := compareSection(liveRep.Phases[i].Name,
			&simRep.Phases[i].Metrics, &liveRep.Phases[i].Metrics, tol)
		d.Phases = append(d.Phases, sec)
		d.OK = d.OK && sec.OK
	}
	return d
}

func compareSection(name string, simM, liveM *scenario.Metrics, tol map[string]Tolerance) SectionDiff {
	sv, lv := diffValues(simM), diffValues(liveM)
	sec := SectionDiff{Name: name, OK: true}
	for _, key := range diffOrder {
		s, sok := sv[key]
		l, lok := lv[key]
		if !sok && !lok {
			continue
		}
		row := MetricDiff{Metric: key, Sim: s, Live: l, Delta: l - s}
		if t, checked := tol[key]; checked && sok && lok {
			row.Checked = true
			row.Within = math.Abs(row.Delta) <= t.Abs+t.Rel*math.Abs(s)
			sec.OK = sec.OK && row.Within
		}
		sec.Rows = append(sec.Rows, row)
	}
	return sec
}

// JSON renders the diff as indented JSON (the CI artifact format).
func (d *Diff) JSON() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// String renders the diff as aligned tables: one per section, checked
// metrics marked ok/FAIL, informational ones marked "·".
func (d *Diff) String() string {
	var b strings.Builder
	verdict := "within tolerances"
	if !d.OK {
		verdict = "OUTSIDE tolerances"
	}
	fmt.Fprintf(&b, "sim vs live: %s · %s · %d nodes — %s\n\n",
		d.Scenario, d.Strategy, d.Nodes, verdict)
	sections := append([]SectionDiff{d.Overall}, d.Phases...)
	for _, sec := range sections {
		t := &sweep.Table{
			Title:  sec.Name,
			Header: []string{"metric", "sim", "live", "delta", "check"},
		}
		for _, r := range sec.Rows {
			check := "·"
			if r.Checked {
				if r.Within {
					check = "ok"
				} else {
					check = "FAIL"
				}
			}
			t.AddRow(r.Metric, fmtVal(r.Sim), fmtVal(r.Live), fmtVal(r.Delta), check)
		}
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String()
}

func fmtVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3f", v)
}
