package disstrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"emcast/internal/peer"
	"emcast/internal/trace"
)

// chromeEvent is one entry of the Chrome trace-event JSON format (loaded
// by chrome://tracing and by Perfetto's legacy importer). ts/dur are in
// microseconds; tid carries the node id and pid groups one sampled
// message per process track.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  uint32         `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func us(d time.Duration) float64 {
	return float64(d) / float64(time.Microsecond)
}

// timelineEvents renders one tree's event list. Events are emitted in
// timestamp order (stable within equal instants).
func timelineEvents(pid int, tr *tree) []chromeEvent {
	evs := append([]Event(nil), tr.events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })

	out := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": "message " + tr.id.String()},
	}}
	for _, ev := range evs {
		ce := chromeEvent{Name: ev.Kind, Ph: "i", Pid: pid, Tid: uint32(ev.To), Ts: us(ev.At), S: "t"}
		switch ev.Kind {
		case "multicast":
			ce.S = "p" // process-scoped: the root of the whole track
		case "payload":
			if ev.Eager {
				ce.Name = "payload eager"
			} else {
				ce.Name = "payload lazy"
			}
			ce.Ph, ce.S = "X", ""
			ce.Dur = 1
			ce.Args = map[string]any{"from": ev.From}
		case "ihave", "iwant":
			ce.Tid = uint32(ev.From)
			ce.Args = map[string]any{"to": ev.To}
		case "duplicate":
			ce.Args = map[string]any{"from": ev.From}
		}
		out = append(out, ce)
	}
	return out
}

// WriteTimeline writes every sampled message's timeline into one Chrome
// trace-event JSON document: one process track per message (in
// multicast-time order), one thread per node.
func (t *Tracer) WriteTimeline(w io.Writer) error {
	t.mu.Lock()
	trees := t.orderedLocked()
	t.mu.Unlock()
	var evs []chromeEvent
	for i, tr := range trees {
		evs = append(evs, timelineEvents(i, tr)...)
	}
	return writeChrome(w, evs)
}

func writeChrome(w io.Writer, evs []chromeEvent) error {
	if evs == nil {
		evs = []chromeEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// WriteDOT writes the final sampled tree (the latest multicast) as a
// Graphviz digraph: solid edges are eager pushes, dashed edges lazy
// recoveries, and edges shared with the previous sampled tree — the
// emergent stable structure — are drawn bold. Output is deterministic
// (nodes and edges sorted).
func (t *Tracer) WriteDOT(w io.Writer) error {
	t.mu.Lock()
	trees := t.orderedLocked()
	t.mu.Unlock()
	if len(trees) == 0 {
		return fmt.Errorf("disstrace: no sampled trees")
	}
	tr := trees[len(trees)-1]
	var prev map[trace.Link]bool
	if len(trees) > 1 {
		_, prev = trees[len(trees)-2].stats()
	}
	ts, _ := tr.stats()

	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pf("digraph dissemination {\n")
	pf("  // message %s\n", tr.id)
	pf("  label=\"message %s\\ndepth %d · %d deliveries · eager %.0f%% · reuse vs prev %s\";\n",
		tr.id, ts.Depth, ts.Deliveries, ts.EagerFraction*100, reuseLabel(ts.EdgeReuse))
	pf("  rankdir=TB;\n  node [shape=circle, fontsize=10];\n")
	if tr.origin != peer.None {
		pf("  n%d [shape=doublecircle, style=filled, fillcolor=\"#ffd966\"];\n", tr.origin)
	}
	nodes := make([]peer.ID, 0, len(tr.parent))
	for n := range tr.parent {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, to := range nodes {
		h := tr.parent[to]
		style := "solid"
		if !h.eager {
			style = "dashed"
		}
		attrs := fmt.Sprintf("style=%s", style)
		if prev != nil && prev[trace.MakeLink(h.from, to)] {
			attrs += ", penwidth=2.2, color=\"#1f77b4\""
		}
		pf("  n%d -> n%d [%s];\n", h.from, to, attrs)
	}
	pf("}\n")
	return err
}

func reuseLabel(r float64) string {
	if r < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", r*100)
}
