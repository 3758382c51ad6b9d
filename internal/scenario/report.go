package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"emcast/internal/disstrace"
	"emcast/internal/sim"
)

// Metrics are the measures reported for a whole run or one phase,
// mirroring the paper's evaluation quantities. Latency, delivery and
// payload/msg figures are message-scoped: attributed to the messages
// multicast in the interval, even when their retransmissions settle later.
// Transmission counters (eager/lazy/control/duplicates/frames) and the
// emergent-structure link share are interval-scoped: everything that
// crossed the wire during the interval.
type Metrics struct {
	MessagesSent int `json:"messages_sent"`
	// SkippedSends counts scheduled messages whose source was dead at
	// send time (hotspot killed, whole population crashed).
	SkippedSends int `json:"skipped_sends,omitempty"`
	Deliveries   int `json:"deliveries"`
	// DeliveryRate is the mean fraction of live initial nodes reached
	// per message; AtomicRate the fraction of messages reaching all.
	DeliveryRate float64 `json:"delivery_rate"`
	AtomicRate   float64 `json:"atomic_rate"`
	// JoinerCoverage is the mean fraction of post-join messages each
	// joiner delivered (overall only; 1 without join churn).
	JoinerCoverage float64 `json:"joiner_coverage,omitempty"`

	MeanLatencyMS float64 `json:"mean_latency_ms"`
	P50LatencyMS  float64 `json:"p50_latency_ms"`
	P95LatencyMS  float64 `json:"p95_latency_ms"`

	// PayloadPerMsg is payload transmissions per delivery (1 optimal,
	// fanout the eager worst case).
	PayloadPerMsg float64 `json:"payload_per_msg"`

	EagerPayloads int `json:"eager_payloads"`
	LazyPayloads  int `json:"lazy_payloads"`
	PayloadBytes  int `json:"payload_bytes"`
	ControlFrames int `json:"control_frames"`
	Duplicates    int `json:"duplicates"`

	// Top5LinkShare is the share of interval payload traffic on the 5%
	// most used connections — the emergent-structure measure, tracked
	// over time across phases.
	Top5LinkShare float64 `json:"top5_link_share"`

	// RecoveryMS is the time-to-full-delivery after a disruption: how
	// long after the phase's first disruptive event (a leave/crash/
	// kill-best churn wave, a partition, or a heal) sustained full
	// delivery to all live original nodes resumed, measured to the
	// completion of the first message of the stable suffix. 0 when the
	// phase has no disruptive event or carries no traffic after it to
	// measure recovery by; -1 when messages after the event never
	// returned to full delivery. The overall value is the worst phase,
	// with -1 dominating.
	RecoveryMS float64 `json:"recovery_ms,omitempty"`

	FramesSent uint64 `json:"frames_sent"`
	FramesLost uint64 `json:"frames_lost"`

	// LiveNodes is the overlay size at the end of the interval (live
	// initial nodes plus joined joiners).
	LiveNodes int `json:"live_nodes"`
}

// PhaseReport carries one phase's window and metrics.
type PhaseReport struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	Metrics Metrics `json:"metrics"`
}

// Report is the result of one scenario run.
type Report struct {
	Scenario string        `json:"scenario"`
	Seed     int64         `json:"seed"`
	Strategy string        `json:"strategy"`
	Nodes    int           `json:"nodes"`
	Joiners  int           `json:"joiners"`
	Elapsed  Duration      `json:"elapsed"`
	Overall  Metrics       `json:"overall"`
	Phases   []PhaseReport `json:"phases"`
	// Trees is the sampled dissemination-tree report. The engine never
	// sets it — callers opt in by assigning Engine.TreeReport() after
	// Run, so default report bytes are identical with sampling on or
	// off (goldens and the byte-identity tests depend on that).
	Trees *disstrace.TreeReport `json:"trees,omitempty"`
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders a human-readable summary: one line per phase plus the
// overall line.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: strategy=%s nodes=%d joiners=%d seed=%d elapsed=%v\n",
		r.Scenario, r.Strategy, r.Nodes, r.Joiners, r.Seed, r.Elapsed.D().Round(time.Millisecond))
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "  %-14s %s\n", p.Name, p.Metrics.line())
	}
	fmt.Fprintf(&b, "  %-14s %s\n", "overall", r.Overall.line())
	return b.String()
}

func (m Metrics) line() string {
	s := fmt.Sprintf(
		"msgs=%d deliveries=%.1f%% atomic=%.1f%% latency=%.0f/%.0fms payload/msg=%.2f top5=%.1f%% live=%d",
		m.MessagesSent, 100*m.DeliveryRate, 100*m.AtomicRate,
		m.MeanLatencyMS, m.P95LatencyMS, m.PayloadPerMsg, 100*m.Top5LinkShare, m.LiveNodes,
	)
	switch {
	case m.RecoveryMS > 0:
		s += fmt.Sprintf(" recovery=%.0fms", m.RecoveryMS)
	case m.RecoveryMS < 0:
		s += " recovery=never"
	}
	return s
}

// metricsFromResult maps a sim.Result's message-scoped figures onto the
// report's Metrics. Interval-scoped counters are filled separately by
// addCounters.
func metricsFromResult(res sim.Result, skipped, liveNodes int) Metrics {
	return Metrics{
		MessagesSent:   res.MessagesSent,
		SkippedSends:   skipped,
		Deliveries:     res.Deliveries,
		DeliveryRate:   res.DeliveryRate,
		AtomicRate:     res.AtomicRate,
		JoinerCoverage: res.JoinerCoverage,
		MeanLatencyMS:  ms(res.MeanLatency),
		P50LatencyMS:   ms(res.P50Latency),
		P95LatencyMS:   ms(res.P95Latency),
		PayloadPerMsg:  res.PayloadPerMsg,
		LiveNodes:      liveNodes,
	}
}

// addCounters fills the interval-scoped counters — everything that
// crossed the wire between two phase edges. The emulator and the TCP
// transports count frames differently, but both expose cumulative
// sent/lost totals.
func (m *Metrics) addCounters(prev, cur edge) {
	m.EagerPayloads = cur.CP.EagerPayloads - prev.CP.EagerPayloads
	m.LazyPayloads = cur.CP.LazyPayloads - prev.CP.LazyPayloads
	m.PayloadBytes = cur.CP.PayloadBytes - prev.CP.PayloadBytes
	m.ControlFrames = cur.CP.ControlFrames - prev.CP.ControlFrames
	m.Duplicates = cur.CP.Duplicates - prev.CP.Duplicates
	m.FramesSent = cur.FramesSent - prev.FramesSent
	m.FramesLost = cur.FramesLost - prev.FramesLost
	m.Top5LinkShare = sim.LinkTopShare(prev.CP, cur.CP, 0.05)
}

// disruption returns the offset of the phase's first disruptive event —
// a leave, crash or kill-best churn wave, a partition, or a heal — or
// false when the phase has none. Joins and network-quality shifts are not
// disruptions: they never take delivery away from live original nodes.
func disruption(p *Phase) (Duration, bool) {
	found := false
	var min Duration
	consider := func(at Duration) {
		if !found || at < min {
			found, min = true, at
		}
	}
	for i := range p.Churn {
		switch p.Churn[i].Kind {
		case ChurnLeaveWave, ChurnCrashWave, ChurnKillBest:
			consider(p.Churn[i].At)
		}
	}
	for i := range p.Network {
		switch p.Network[i].Kind {
		case NetPartition, NetHeal:
			consider(p.Network[i].At)
		}
	}
	return min, found
}

func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
