// Package monitor implements the Performance Monitor component of the
// Payload Scheduler (paper §3, §4.2): it exposes a per-peer metric used by
// transmission strategies to bias eager payload transmissions.
//
// Three monitors are provided:
//
//   - Oracle: a metric function backed by global knowledge of the network
//     model, exactly as the paper's evaluation does (§4.3: strategies "rely
//     on global knowledge of the network that is extracted directly from
//     the model file") to separate strategy quality from monitor quality.
//   - EWMA: a run-time round-trip-time estimator fed by ping/pong
//     observations, the deployable counterpart (every TCP connection
//     implicitly maintains such an estimate, §4.2).
//   - Rankings computed from any monitor, used by the Ranked strategy to
//     designate "best" nodes (§4.1).
package monitor

import (
	"math"
	"sort"
	"time"

	"emcast/internal/peer"
)

// Monitor exposes the paper's Metric(p) primitive: a current scalar metric
// for a given peer. Lower is better (closer / faster). Metric returns
// +Inf when nothing is known about the peer yet.
type Monitor interface {
	Metric(p peer.ID) float64
}

// Func adapts a plain function to the Monitor interface. It is the vehicle
// for oracle monitors built from the topology model.
type Func func(p peer.ID) float64

// Metric implements Monitor.
func (f Func) Metric(p peer.ID) float64 { return f(p) }

// Unknown is the metric reported for peers without observations.
func Unknown() float64 { return math.Inf(1) }

// EWMA is a run-time latency monitor: it maintains an exponentially
// weighted moving average of observed round-trip times per peer, in
// milliseconds, mirroring TCP's RTT estimation. The zero value is not
// usable; create with NewEWMA. EWMA is not safe for concurrent use; the
// owning node's host serialises access.
type EWMA struct {
	alpha float64
	rtt   map[peer.ID]float64
}

// NewEWMA creates a monitor with smoothing factor alpha in (0, 1]; the
// conventional TCP value is 0.125.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.125
	}
	return &EWMA{alpha: alpha, rtt: make(map[peer.ID]float64)}
}

// Observe incorporates a round-trip time measurement for p.
func (e *EWMA) Observe(p peer.ID, rtt time.Duration) {
	ms := float64(rtt) / float64(time.Millisecond)
	if old, ok := e.rtt[p]; ok {
		e.rtt[p] = old + e.alpha*(ms-old)
	} else {
		e.rtt[p] = ms
	}
}

// Metric implements Monitor: the smoothed one-way estimate (RTT/2) in
// milliseconds, or +Inf for unknown peers.
func (e *EWMA) Metric(p peer.ID) float64 {
	if v, ok := e.rtt[p]; ok {
		return v / 2
	}
	return Unknown()
}

// Known returns how many peers have observations.
func (e *EWMA) Known() int { return len(e.rtt) }

// Rank orders nodes by a centrality score (mean metric to all other nodes,
// ascending: the most central node first). It is how the evaluation
// designates "best" nodes for the Ranked strategy; the paper notes a
// ranking can also be computed online with a gossip-based sorting protocol
// and that approximate rankings suffice (§4.1, §6.5).
func Rank(n int, metric func(a, b peer.ID) float64) []peer.ID {
	type scored struct {
		id    peer.ID
		score float64
	}
	scores := make([]scored, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			sum += metric(peer.ID(i), peer.ID(j))
		}
		scores[i] = scored{id: peer.ID(i), score: sum}
	}
	sort.Slice(scores, func(a, b int) bool {
		if scores[a].score != scores[b].score {
			return scores[a].score < scores[b].score
		}
		return scores[a].id < scores[b].id
	})
	out := make([]peer.ID, n)
	for i, s := range scores {
		out[i] = s.id
	}
	return out
}

// BestSet returns the membership test for the top fraction of the ranking
// (e.g. 0.2 designates the best 20% of nodes as hubs).
func BestSet(ranking []peer.ID, fraction float64) map[peer.ID]bool {
	k := int(math.Round(fraction * float64(len(ranking))))
	if k < 0 {
		k = 0
	}
	if k > len(ranking) {
		k = len(ranking)
	}
	best := make(map[peer.ID]bool, k)
	for _, id := range ranking[:k] {
		best[id] = true
	}
	return best
}
