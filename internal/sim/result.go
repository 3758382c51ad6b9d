package sim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"emcast/internal/peer"
	"emcast/internal/stats"
	"emcast/internal/trace"
)

// Result carries the metrics the paper reports for one run.
type Result struct {
	Config Config

	// MessagesSent is the number of multicasts performed.
	MessagesSent int
	// Deliveries is the total number of deliveries (all nodes).
	Deliveries int

	// MeanLatency is the average end-to-end delivery latency, excluding
	// the origin's local delivery, with its 95% confidence half-width.
	MeanLatency     time.Duration
	LatencyInterval stats.Interval
	// P50Latency / P95Latency are latency percentiles.
	P50Latency time.Duration
	P95Latency time.Duration

	// PayloadPerMsg is the average number of payload transmissions per
	// message delivered (paper Fig. 5(a) x-axis; 1 is optimal, fanout
	// is the eager-push worst case).
	PayloadPerMsg float64
	// PayloadPerMsgLow is the same metric restricted to payloads sent
	// by non-best nodes, per non-best node (paper's "ranked (low)" /
	// "combined (low)" series).
	PayloadPerMsgLow float64
	// PayloadPerMsgBest is the contribution of best nodes (paper §6.4:
	// 10.77 payload/message by the best 20%).
	PayloadPerMsgBest float64

	// DeliveryRate is the mean fraction of live nodes that delivered
	// each message (paper Fig. 5(b) y-axis).
	DeliveryRate float64
	// AtomicRate is the fraction of messages delivered by every live
	// node.
	AtomicRate float64
	// JoinerCoverage is the mean fraction of post-join messages each
	// late joiner delivered (1 when the run has no churn).
	JoinerCoverage float64

	// Top5Share is the share of payload traffic carried by the top 5%
	// most used connections (paper Fig. 4 and Fig. 6(c)).
	Top5Share float64

	// EagerPayloads / LazyPayloads split payload transmissions by
	// scheduling mode; Duplicates counts redundant payload receptions;
	// ControlFrames counts IHAVE/IWANT traffic.
	EagerPayloads int
	LazyPayloads  int
	Duplicates    int
	ControlFrames int
	RequestMisses int

	// FramesSent / FramesLost are transport-level counters (§5.4).
	FramesSent uint64
	FramesLost uint64

	// Elapsed is the virtual duration of the run.
	Elapsed time.Duration
}

// collect derives a Result from the tracer's aggregates: the
// message-scoped figures are WindowResult over the whole run (late
// joiners are outside its denominator — they legitimately miss messages
// sent before they joined — and reported separately as JoinerCoverage);
// collect adds what only a whole run has.
func (r *Runner) collect() Result {
	cp := r.tracer.Checkpoint()
	msgs := r.tracer.MessageStats()
	liveSet := r.liveOriginalSet()
	res := WindowResult(msgs, liveSet, 0, math.MaxInt64)
	res.Config = r.cfg
	res.EagerPayloads = cp.EagerPayloads
	res.LazyPayloads = cp.LazyPayloads
	res.Duplicates = cp.Duplicates
	res.ControlFrames = cp.ControlFrames
	res.RequestMisses = cp.RequestMisses
	res.FramesSent = r.net.FramesSent
	res.FramesLost = r.net.FramesLost
	res.Elapsed = r.elapsed

	// Group contributions: payloads sent by group members, normalised
	// per message and per group member. The low/best decomposition is
	// defined against the oracle ranking; materialising that just for
	// this split would force the O(n²) oracle on strategies that never
	// use it, so it is reported only when a ranking is in play (ranked
	// and hybrid runs — including gossip-ranked ones, where the oracle
	// best set is the ground truth the decentralized pipeline is
	// compared against) or has already been computed.
	if r.oracleDone || r.cfg.Strategy == StrategyRanked || r.cfg.Strategy == StrategyHybrid {
		r.ensureOracle()
		byNode := r.tracer.NodePayloads()
		lowCount, bestCount := 0, 0
		lowPayloads, bestPayloads := 0, 0
		for i := range r.nodes {
			id := peer.ID(i)
			if !liveSet[id] {
				continue
			}
			if r.best[id] {
				bestCount++
				bestPayloads += byNode[id]
			} else {
				lowCount++
				lowPayloads += byNode[id]
			}
		}
		if res.MessagesSent > 0 {
			if lowCount > 0 {
				res.PayloadPerMsgLow = float64(lowPayloads) / float64(res.MessagesSent) / float64(lowCount)
			}
			if bestCount > 0 {
				res.PayloadPerMsgBest = float64(bestPayloads) / float64(res.MessagesSent) / float64(bestCount)
			}
		}
	}

	loads := make([]float64, 0, cp.Links.Len())
	cp.Links.Range(func(_ trace.Link, l trace.LinkLoad) {
		loads = append(loads, float64(l.Payloads))
	})
	res.Top5Share = stats.TopShare(loads, 0.05)

	res.JoinerCoverage = r.joinerCoverage(msgs)
	return res
}

// liveOriginalSet returns the set of original (non-joiner) nodes that
// have not failed or left — the denominator the headline metrics are
// judged against.
func (r *Runner) liveOriginalSet() map[peer.ID]bool {
	liveSet := make(map[peer.ID]bool, r.cfg.Nodes)
	for i := 0; i < r.cfg.Nodes; i++ {
		id := peer.ID(i)
		if !r.failed[id] {
			liveSet[id] = true
		}
	}
	return liveSet
}

// CollectWindow derives metrics restricted to the messages multicast in
// the virtual-time window [from, to). Latency, delivery and payload
// figures are attributed to the exact window messages (payload counts via
// the per-message aggregates, so retransmissions that settle after the
// window still count towards the message that caused them). Counters that
// cannot be attributed to individual messages — eager/lazy splits, control
// frames, duplicates, link loads, frame counts, group contributions — are
// left zero; diff Checkpoint values taken at the window boundaries for
// those.
func (r *Runner) CollectWindow(from, to time.Duration) Result {
	res := WindowResult(r.tracer.MessageStats(), r.liveOriginalSet(), from, to)
	res.Config = r.cfg
	res.Elapsed = r.elapsed
	return res
}

// WindowResult derives message-scoped metrics from per-message trace
// aggregates, restricted to the messages multicast in [from, to) and
// judged against liveSet — the deployment-neutral core of CollectWindow,
// shared by the simulator and the live TCP harness (both trace through
// the same aggregate pipeline, so one metrics implementation serves both).
func WindowResult(msgs []trace.MsgStats, liveSet map[peer.ID]bool, from, to time.Duration) Result {
	var res Result
	live := len(liveSet)

	var lat stats.Welford
	var latencies []float64
	var deliveryFracs []float64
	atomic, payloads := 0, 0
	for i := range msgs {
		m := &msgs[i]
		if m.SentAt < from || m.SentAt >= to {
			continue
		}
		res.MessagesSent++
		payloads += m.Payloads
		res.Deliveries += m.Deliveries
		delivered := m.DeliveredAmong(liveSet)
		for _, l := range m.Latencies {
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
	res.MeanLatency = time.Duration(lat.Mean())
	res.LatencyInterval = lat.Interval()
	res.P50Latency = time.Duration(stats.Percentile(latencies, 50))
	res.P95Latency = time.Duration(stats.Percentile(latencies, 95))
	res.DeliveryRate = stats.Mean(deliveryFracs)
	if res.MessagesSent > 0 {
		res.AtomicRate = float64(atomic) / float64(res.MessagesSent)
	}
	if res.Deliveries > 0 {
		res.PayloadPerMsg = float64(payloads) / float64(res.Deliveries)
	}
	return res
}

// RecoveryTime measures how fast dissemination returned to full delivery
// after a disruption (a churn wave, a partition, a heal) at virtual time
// event. It scans the messages multicast in [event, to) and finds the
// earliest message from which every later message in the window reached
// all live original nodes — the sustained full-delivery suffix — and
// reports the instant that first message completed (its last delivery to
// a live node) relative to event. Deliveries are counted whenever they
// happened, so lazy retransmissions that settle after the window still
// count towards the message that caused them.
//
// recovered is false when messages exist in the window but no sustained
// recovery does — the disruption was never fully absorbed. measured is
// false when the window carried no traffic (or no nodes survived) to
// judge recovery by at all; callers must not read that as a failed
// recovery. Liveness is judged against the end-of-run live set, the
// same convention CollectWindow uses.
//
// Under the default streaming trace, the window must have been marked
// with MarkRecovery before its traffic ran (the scenario engine marks
// every disrupted phase automatically); unmarked windows panic rather
// than silently mis-measure.
func (r *Runner) RecoveryTime(event, to time.Duration) (rec time.Duration, recovered, measured bool) {
	return MessageRecovery(r.tracer.MessageStats(), r.liveOriginalSet(), event, to)
}

// MarkRecovery declares [from, to) a disruption window whose recovery
// time will be queried: under the streaming trace, per-delivery
// completion records of the window's messages are retained so the
// measurement is exact. Call it before the window's traffic is
// multicast. With a full trace this is a no-op (everything is retained).
func (r *Runner) MarkRecovery(from, to time.Duration) {
	if s, ok := r.tracer.(*trace.Streaming); ok {
		s.RetainCompletions(from, to)
	}
}

// MessageRecovery is the deployment-neutral core of RecoveryTime: it
// measures time-to-sustained-full-delivery after a disruption from
// per-message trace aggregates, judged against liveSet. The live TCP
// harness shares it with the simulator.
func MessageRecovery(msgs []trace.MsgStats, liveSet map[peer.ID]bool, event, to time.Duration) (rec time.Duration, recovered, measured bool) {
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
			panic(fmt.Sprintf("sim: recovery window [%v, %v) was not marked before its traffic ran — call Runner.MarkRecovery (or trace.Streaming.RetainCompletions) up front, or use a full trace", event, to))
		}
		delivered := m.DeliveredAmong(liveSet)
		pts = append(pts, point{sent: m.SentAt, completed: completed, full: delivered == live})
	}
	if len(pts) == 0 {
		return 0, false, false
	}
	// Multicasts are recorded in virtual-time order, but sort anyway so
	// the suffix scan never depends on collector internals.
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

// LinkTopShare computes the share of payload traffic carried by the top
// frac of connections between two trace checkpoints: cur's link loads
// minus prev's. Pass a zero-value prev to measure from the start of the
// run. This is the emergent-structure metric evaluated over one phase of
// a run.
func LinkTopShare(prev, cur trace.Checkpoint, frac float64) float64 {
	loads := make([]float64, 0, cur.Links.Len())
	cur.Links.Range(func(l trace.Link, load trace.LinkLoad) {
		if d := load.Payloads - prev.Links.Get(l).Payloads; d > 0 {
			loads = append(loads, float64(d))
		}
	})
	return stats.TopShare(loads, frac)
}

// joinerCoverage computes the mean fraction of post-join messages each
// late joiner delivered (1.0 when there are no joiners, so the metric is
// neutral in churn-free runs). A short grace period after the join absorbs
// the bootstrap round trip.
func (r *Runner) joinerCoverage(msgs []trace.MsgStats) float64 {
	return MessageJoinerCoverage(msgs, r.joinedAt, func(id peer.ID) bool { return r.failed[id] }, 2*time.Second)
}

// MessageJoinerCoverage is the deployment-neutral core of the joiner
// coverage metric: the mean fraction of post-join messages each surviving
// joiner delivered, from per-message trace aggregates. grace absorbs the
// bootstrap round trip after each join (the simulator uses 2 s of virtual
// time; the live harness passes a wall-clock value).
func MessageJoinerCoverage(msgs []trace.MsgStats, joinedAt map[peer.ID]time.Duration, failed func(peer.ID) bool, grace time.Duration) float64 {
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

// String summarises the result in one line.
func (res Result) String() string {
	return fmt.Sprintf(
		"%s: latency=%v payload/msg=%.2f (low=%.2f best=%.2f) deliveries=%.1f%% top5=%.1f%% dup=%d",
		res.Config.Strategy, res.MeanLatency.Round(time.Millisecond),
		res.PayloadPerMsg, res.PayloadPerMsgLow, res.PayloadPerMsgBest,
		100*res.DeliveryRate, 100*res.Top5Share, res.Duplicates,
	)
}

// LinkLoads returns per-connection payload counts with endpoint
// coordinates, for plotting the Fig. 4 emergent-structure graphs.
func (r *Runner) LinkLoads() []LinkUsage {
	cp := r.tracer.Checkpoint()
	out := make([]LinkUsage, 0, cp.Links.Len())
	cp.Links.Range(func(l trace.Link, load trace.LinkLoad) {
		out = append(out, LinkUsage{
			A: l.A, B: l.B,
			AX: r.matrix.Coords[l.A][0], AY: r.matrix.Coords[l.A][1],
			BX: r.matrix.Coords[l.B][0], BY: r.matrix.Coords[l.B][1],
			Payloads: load.Payloads,
			Bytes:    load.Bytes,
		})
	})
	return out
}

// LinkUsage describes payload traffic over one connection, with plane
// coordinates for plotting.
type LinkUsage struct {
	A, B   peer.ID
	AX, AY float64
	BX, BY float64

	Payloads int
	Bytes    int
}
