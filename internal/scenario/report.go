package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"emcast/internal/disstrace"
	"emcast/internal/peer"
	"emcast/internal/sim"
	"emcast/internal/stats"
	"emcast/internal/trace"
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
	// kill-best churn wave, a fault-crash, a partition, or a heal)
	// sustained full delivery to all live original nodes resumed,
	// measured to the completion of the first message of the stable
	// suffix. 0 when the
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

// Measure computes the whole-run Metrics of a runner driven by hand
// rather than by a Player (emcast.Cluster, tests): the Player's overall
// figures, through the same code, with the counters taken from the start
// of the run — a zero first edge — instead of from the end of warm-up.
// Delivery is judged against the original nodes still up.
func Measure(r *sim.Runner) Metrics {
	sub := emulator{r, r.Network()}
	joined := make(map[peer.ID]time.Duration)
	for i := range r.Nodes() {
		if at, ok := r.JoinedAt(i); ok {
			joined[peer.ID(i)] = at
		}
	}
	return overall(sub, liveOriginals(r.Live(), len(r.Nodes())), joined, edge{}, takeEdge(sub, true))
}

// liveOriginals is the set of original nodes (ids below nodes) among the
// live ones: the denominator delivery is judged against.
func liveOriginals(live []int, nodes int) map[peer.ID]bool {
	set := make(map[peer.ID]bool, nodes)
	for _, n := range live {
		if n < nodes {
			set[peer.ID(n)] = true
		}
	}
	return set
}

// overall computes the whole-run Metrics between the run's first and final
// edges. The message-scoped figures cover every message of the run, judged
// against liveSet. Late joiners are outside that denominator — they
// legitimately miss messages sent before they joined — and are reported
// separately as JoinerCoverage, after a grace period that absorbs the
// bootstrap round trip.
func overall(sub Substrate, liveSet map[peer.ID]bool, joined map[peer.ID]time.Duration, first, last edge) Metrics {
	m := windowMetrics(last.Msgs, liveSet, 0, math.MaxInt64)
	m.JoinerCoverage = joinerCoverage(last.Msgs, joined,
		func(id peer.ID) bool { return sub.Failed(int(id)) }, sub.Scale(2*time.Second))
	m.LiveNodes = last.live
	m.addCounters(first, last)
	return m
}

// windowMetrics derives the message-scoped metrics from per-message trace
// aggregates, restricted to the messages multicast in [from, to) and
// judged against liveSet. Payload counts come from the per-message
// aggregates, so retransmissions that settle after the window still count
// towards the message that caused them. The interval-scoped counters are
// left zero for addCounters.
func windowMetrics(msgs []trace.MsgStats, liveSet map[peer.ID]bool, from, to time.Duration) Metrics {
	var m Metrics
	var lat stats.Welford
	var latencies, deliveryFracs []float64
	live, atomic, payloads := len(liveSet), 0, 0
	for i := range msgs {
		msg := &msgs[i]
		if msg.SentAt < from || msg.SentAt >= to {
			continue
		}
		m.MessagesSent++
		payloads += msg.Payloads
		m.Deliveries += msg.Deliveries
		delivered := msg.DeliveredAmong(liveSet)
		for _, l := range msg.Latencies {
			lat.Add(l)
			latencies = append(latencies, l)
		}
		if live > 0 {
			frac := float64(delivered) / float64(live)
			deliveryFracs = append(deliveryFracs, frac)
			if delivered == live {
				atomic++
			}
		}
	}
	// Latencies pass through time.Duration (whole nanoseconds) on their
	// way to milliseconds; every committed report depends on that rounding.
	m.MeanLatencyMS = ms(time.Duration(lat.Mean()))
	m.P50LatencyMS = ms(time.Duration(stats.Percentile(latencies, 50)))
	m.P95LatencyMS = ms(time.Duration(stats.Percentile(latencies, 95)))
	m.DeliveryRate = stats.Mean(deliveryFracs)
	if m.MessagesSent > 0 {
		m.AtomicRate = float64(atomic) / float64(m.MessagesSent)
	}
	if m.Deliveries > 0 {
		m.PayloadPerMsg = float64(payloads) / float64(m.Deliveries)
	}
	return m
}

// messageRecovery measures how fast dissemination returned to full
// delivery after a disruption (a churn wave, a crash, a partition, a heal)
// at clock time event. It scans the messages multicast in [event, to) and
// finds the earliest message from which every later message in the window
// reached all of liveSet — the sustained full-delivery suffix — and
// reports the instant that first message completed (its last delivery to
// a live node) relative to event. Deliveries are counted whenever they
// happened, so lazy retransmissions that settle after the window still
// count towards the message that caused them.
//
// recovered is false when messages exist in the window but no sustained
// recovery does — the disruption was never fully absorbed. measured is
// false when the window carried no traffic (or no nodes survived) to
// judge recovery by at all; callers must not read that as a failed
// recovery.
//
// Under the streaming trace, the window must have been marked with
// Substrate.MarkRecovery before its traffic ran (the Player marks every
// disrupted phase); unmarked windows panic rather than silently
// mis-measure.
func messageRecovery(msgs []trace.MsgStats, liveSet map[peer.ID]bool, event, to time.Duration) (rec time.Duration, recovered, measured bool) {
	live := len(liveSet)
	if live == 0 {
		return 0, false, false
	}

	type point struct {
		sent, completed time.Duration
		full            bool
	}
	var pts []point
	for i := range msgs {
		m := &msgs[i]
		if m.SentAt < event || m.SentAt >= to {
			continue
		}
		completed, ok := m.CompletionAmong(liveSet)
		if !ok {
			panic(fmt.Sprintf("scenario: recovery window [%v, %v) was not marked before its traffic ran — call MarkRecovery (or trace.Streaming.RetainCompletions) up front", event, to))
		}
		delivered := m.DeliveredAmong(liveSet)
		pts = append(pts, point{sent: m.SentAt, completed: completed, full: delivered == live})
	}
	if len(pts) == 0 {
		return 0, false, false
	}
	// Multicasts are recorded in clock order, but sort anyway so the
	// suffix scan never depends on collector internals.
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].sent < pts[j].sent })
	start := -1
	for i := len(pts) - 1; i >= 0; i-- {
		if !pts[i].full {
			break
		}
		start = i
	}
	if start < 0 {
		return 0, false, true
	}
	return pts[start].completed - event, true, true
}

// joinerCoverage is the mean fraction of post-join messages each surviving
// joiner delivered, from per-message trace aggregates: 1 when there are no
// joiners, so the metric is neutral in churn-free runs. grace absorbs the
// bootstrap round trip after each join.
func joinerCoverage(msgs []trace.MsgStats, joinedAt map[peer.ID]time.Duration, failed func(peer.ID) bool, grace time.Duration) float64 {
	if len(joinedAt) == 0 {
		return 1
	}
	// Iterate joiners in id order: float summation is not associative,
	// so map order would leak into the last ulp of the mean and break
	// byte-exact reproducibility.
	joiners := make([]peer.ID, 0, len(joinedAt))
	for id := range joinedAt {
		joiners = append(joiners, id)
	}
	sort.Slice(joiners, func(i, j int) bool { return joiners[i] < joiners[j] })
	var fracs []float64
	survivors := 0
	for _, id := range joiners {
		if failed(id) {
			// A joiner that later crashed or left measures nothing
			// about the join path; coverage is over joiners still up
			// at the end of the run.
			continue
		}
		survivors++
		joined := joinedAt[id]
		eligible, got := 0, 0
		for i := range msgs {
			m := &msgs[i]
			if m.SentAt < joined+grace {
				continue
			}
			eligible++
			if m.DeliveredBy(id) {
				got++
			}
		}
		if eligible > 0 {
			fracs = append(fracs, float64(got)/float64(eligible))
		}
	}
	if len(fracs) == 0 {
		if survivors == 0 {
			// Every joiner died: zero coverage, not the no-churn
			// neutral value — a run that lost all its joiners must not
			// score perfect coverage in comparisons.
			return 0
		}
		return 1
	}
	return stats.Mean(fracs)
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
	m.Top5LinkShare = linkTopShare(prev.CP, cur.CP, 0.05)
}

// linkTopShare is the share of payload traffic carried by the top frac of
// connections between two trace checkpoints: cur's link loads minus
// prev's (a zero prev measures from the start of the run). This is the
// emergent-structure metric evaluated over one interval of a run.
func linkTopShare(prev, cur trace.Checkpoint, frac float64) float64 {
	loads := make([]float64, 0, cur.Links.Len())
	cur.Links.Range(func(l trace.Link, load trace.LinkLoad) {
		if d := load.Payloads - prev.Links.Get(l).Payloads; d > 0 {
			loads = append(loads, float64(d))
		}
	})
	return stats.TopShare(loads, frac)
}

// disruption returns the offset of the phase's first disruptive event —
// a leave, crash or kill-best churn wave, a fault-crash, a partition, or a
// heal — or false when the phase has none. Joins and network-quality
// shifts are not disruptions: they never take delivery away from live
// original nodes.
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
		case NetPartition, NetHeal, NetFaultCrash:
			consider(p.Network[i].At)
		}
	}
	return min, found
}

func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
