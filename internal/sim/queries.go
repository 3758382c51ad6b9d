package sim

import (
	"time"

	"emcast/internal/peer"
	"emcast/internal/trace"
)

// MarkRecovery declares [from, to) a disruption window whose recovery
// time will be queried: per-delivery completion records of the window's
// messages are retained so the measurement is exact. Call it before the
// window's traffic is multicast.
func (r *Runner) MarkRecovery(from, to time.Duration) {
	r.tracer.RetainCompletions(from, to)
}

// PayloadSplit returns the payloads each original node still up sent per
// message, averaged over the non-best nodes (low: the paper's "ranked
// (low)" / "combined (low)" series) and over the best nodes (best: §6.4's
// 10.77 payload/message by the best 20%).
//
// The low/best decomposition is defined against the oracle ranking;
// materialising that just for this split would force the O(n²) oracle on
// strategies that never use it, so the split is zero unless a ranking is
// in play (ranked and hybrid runs — including gossip-ranked ones, where
// the oracle best set is the ground truth the decentralized pipeline is
// compared against) or has already been computed.
func (r *Runner) PayloadSplit() (low, best float64) {
	if !r.oracleDone && r.cfg.Strategy != StrategyRanked && r.cfg.Strategy != StrategyHybrid {
		return 0, 0
	}
	r.ensureOracle()
	messages := len(r.tracer.MessageStats())
	byNode := r.tracer.NodePayloads()
	lowCount, bestCount := 0, 0
	lowPayloads, bestPayloads := 0, 0
	for _, i := range r.Live() {
		id := peer.ID(i)
		if r.best[id] {
			bestCount++
			bestPayloads += byNode[id]
		} else {
			lowCount++
			lowPayloads += byNode[id]
		}
	}
	if messages > 0 {
		if lowCount > 0 {
			low = float64(lowPayloads) / float64(messages) / float64(lowCount)
		}
		if bestCount > 0 {
			best = float64(bestPayloads) / float64(messages) / float64(bestCount)
		}
	}
	return low, best
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
