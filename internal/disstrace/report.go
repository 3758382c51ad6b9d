package disstrace

import (
	"bytes"
	"sort"
	"time"

	"emcast/internal/peer"
	"emcast/internal/trace"
)

// TreeStats is the shape of one sampled message's dissemination tree.
type TreeStats struct {
	ID       string  `json:"id"`
	Origin   peer.ID `json:"origin"`
	SentAtMS float64 `json:"sent_at_ms"`
	// Deliveries counts nodes that delivered the message (including the
	// origin's local delivery).
	Deliveries int `json:"deliveries"`
	// Depth is the longest root-to-leaf hop chain; 0 for a tree where
	// only the origin delivered.
	Depth int `json:"depth"`
	// RootFanout is the origin's child count; MaxFanout and MeanFanout
	// describe the fanout distribution over internal nodes.
	RootFanout int     `json:"root_fanout"`
	MaxFanout  int     `json:"max_fanout"`
	MeanFanout float64 `json:"mean_fanout"`
	// EagerHops/LazyHops classify delivery edges (a node's first payload
	// receipt) by transmission path; EagerFraction is eager over total
	// (1 when the tree has no hops).
	EagerHops     int     `json:"eager_hops"`
	LazyHops      int     `json:"lazy_hops"`
	EagerFraction float64 `json:"eager_fraction"`
	// LastDeliveryMS is the critical path in time: the latest delivery
	// relative to the multicast instant. CriticalPathHops is the tree
	// depth of that last-delivered node.
	LastDeliveryMS   float64 `json:"last_delivery_ms"`
	CriticalPathHops int     `json:"critical_path_hops"`
	Adverts          int     `json:"adverts"`
	Requests         int     `json:"requests"`
	Duplicates       int     `json:"duplicates"`
	RequestMisses    int     `json:"request_misses"`
	// EdgeReuse is the fraction of this tree's delivery edges (as
	// undirected links) already used by the previous sampled tree; -1
	// for the first tree. The paper's §5 stable-tree claim predicts this
	// climbs toward 1 under a tree-biased strategy.
	EdgeReuse float64 `json:"edge_reuse"`
	// WindowTopShare is the share of delivery-edge uses concentrated on
	// the top 5% of links over the trailing window of sampled trees.
	WindowTopShare float64 `json:"window_top_share"`
}

// TreeReport aggregates every sampled tree of a run.
type TreeReport struct {
	SampleRate float64     `json:"sample_rate"`
	Window     int         `json:"window"`
	Sampled    int         `json:"sampled"`
	Trees      []TreeStats `json:"trees"`

	MeanDepth     float64 `json:"mean_depth"`
	MaxDepth      int     `json:"max_depth"`
	EagerFraction float64 `json:"eager_fraction"`
	// MeanEdgeReuse averages EdgeReuse over trees after the first.
	MeanEdgeReuse       float64 `json:"mean_edge_reuse"`
	FinalWindowTopShare float64 `json:"final_window_top_share"`
	RequestMisses       int     `json:"request_misses"`
}

// Report computes (once; the result is cached) the tree report and
// populates the obs instruments. Call it after the run has drained.
func (t *Tracer) Report() *TreeReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.report != nil {
		return t.report
	}
	rep := t.buildLocked()
	t.report = rep
	for i := range rep.Trees {
		ts := &rep.Trees[i]
		t.depthHist.Observe(float64(ts.Depth))
		if ts.EdgeReuse >= 0 {
			t.reuseHist.Observe(ts.EdgeReuse)
		}
	}
	t.sampledCtr.Add(int64(rep.Sampled))
	return rep
}

// orderedLocked returns the sampled trees in multicast-time order (ties
// broken by id bytes) — deterministic for both the simulator's virtual
// clock and a live run's wall clock.
func (t *Tracer) orderedLocked() []*tree {
	out := make([]*tree, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.trees[id])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].sentAt != out[j].sentAt {
			return out[i].sentAt < out[j].sentAt
		}
		return bytes.Compare(out[i].id[:], out[j].id[:]) < 0
	})
	return out
}

func (t *Tracer) buildLocked() *TreeReport {
	trees := t.orderedLocked()
	rep := &TreeReport{
		SampleRate: t.rate,
		Window:     linkWindow,
		Sampled:    len(trees),
		Trees:      make([]TreeStats, 0, len(trees)),
	}
	var (
		prevEdges  map[trace.Link]bool
		windowSets []map[trace.Link]bool
		totalHops  int
		totalEager int
		reuseSum   float64
		reuseCount int
		depthSum   int
	)
	for _, tr := range trees {
		ts, edges := tr.stats()
		if prevEdges == nil {
			ts.EdgeReuse = -1
		} else {
			ts.EdgeReuse = reuse(edges, prevEdges)
			reuseSum += ts.EdgeReuse
			reuseCount++
		}
		windowSets = append(windowSets, edges)
		if len(windowSets) > linkWindow {
			windowSets = windowSets[1:]
		}
		ts.WindowTopShare = topShare(windowSets)
		prevEdges = edges

		totalHops += ts.EagerHops + ts.LazyHops
		totalEager += ts.EagerHops
		depthSum += ts.Depth
		if ts.Depth > rep.MaxDepth {
			rep.MaxDepth = ts.Depth
		}
		rep.RequestMisses += ts.RequestMisses
		rep.Trees = append(rep.Trees, ts)
	}
	if len(trees) > 0 {
		rep.MeanDepth = float64(depthSum) / float64(len(trees))
		rep.FinalWindowTopShare = rep.Trees[len(rep.Trees)-1].WindowTopShare
	}
	if totalHops > 0 {
		rep.EagerFraction = float64(totalEager) / float64(totalHops)
	} else {
		rep.EagerFraction = 1
	}
	if reuseCount > 0 {
		rep.MeanEdgeReuse = reuseSum / float64(reuseCount)
	}
	return rep
}

// stats derives one tree's metrics plus its undirected delivery-edge set.
func (tr *tree) stats() (TreeStats, map[trace.Link]bool) {
	ts := TreeStats{
		ID:            tr.id.String(),
		Origin:        tr.origin,
		SentAtMS:      ms(tr.sentAt),
		Deliveries:    len(tr.deliveredAt),
		Adverts:       tr.adverts,
		Requests:      tr.requests,
		Duplicates:    tr.duplicates,
		RequestMisses: tr.misses,
	}

	edges := make(map[trace.Link]bool, len(tr.parent))
	children := make(map[peer.ID]int)
	nodes := make([]peer.ID, 0, len(tr.parent))
	for to, h := range tr.parent {
		edges[trace.MakeLink(h.from, to)] = true
		children[h.from]++
		nodes = append(nodes, to)
		if h.eager {
			ts.EagerHops++
		} else {
			ts.LazyHops++
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	ts.RootFanout = children[tr.origin]
	internal := 0
	for _, c := range children {
		internal++
		if c > ts.MaxFanout {
			ts.MaxFanout = c
		}
	}
	if internal > 0 {
		ts.MeanFanout = float64(len(tr.parent)) / float64(internal)
	}
	if hops := ts.EagerHops + ts.LazyHops; hops > 0 {
		ts.EagerFraction = float64(ts.EagerHops) / float64(hops)
	} else {
		ts.EagerFraction = 1
	}

	depth := tr.depths(nodes)
	for _, d := range depth {
		if d > ts.Depth {
			ts.Depth = d
		}
	}

	// Critical path: the last delivery relative to the multicast. Ties
	// break toward the smallest node id so the metric is deterministic.
	if tr.sentAt >= 0 {
		var (
			lastNode peer.ID
			lastAt   time.Duration = -1
		)
		delivered := make([]peer.ID, 0, len(tr.deliveredAt))
		for n := range tr.deliveredAt {
			delivered = append(delivered, n)
		}
		sort.Slice(delivered, func(i, j int) bool { return delivered[i] < delivered[j] })
		for _, n := range delivered {
			if at := tr.deliveredAt[n]; at > lastAt {
				lastAt = at
				lastNode = n
			}
		}
		if lastAt >= 0 {
			ts.LastDeliveryMS = ms(lastAt - tr.sentAt)
			ts.CriticalPathHops = depth[lastNode]
		}
	}
	return ts, edges
}

// depths computes each node's hop distance from the root by chasing
// parent pointers with memoisation. A node whose chain does not reach a
// root (its first sender was itself never traced receiving — e.g. a
// tracer attached mid-run) is anchored at the chain's end; a defensive
// cycle guard anchors at the point of re-entry.
func (tr *tree) depths(nodes []peer.ID) map[peer.ID]int {
	depth := make(map[peer.ID]int, len(tr.parent)+1)
	if tr.origin != peer.None {
		depth[tr.origin] = 0
	}
	var chain []peer.ID
	for _, n := range nodes {
		chain = chain[:0]
		cur := n
		visiting := make(map[peer.ID]bool)
		for {
			if _, ok := depth[cur]; ok {
				break
			}
			h, ok := tr.parent[cur]
			if !ok || visiting[cur] {
				depth[cur] = 0
				break
			}
			visiting[cur] = true
			chain = append(chain, cur)
			cur = h.from
		}
		base := depth[cur]
		for i := len(chain) - 1; i >= 0; i-- {
			base++
			depth[chain[i]] = base
		}
	}
	return depth
}

// reuse is |cur ∩ prev| / |cur|, or 0 for an empty current tree.
func reuse(cur, prev map[trace.Link]bool) float64 {
	if len(cur) == 0 {
		return 0
	}
	shared := 0
	for l := range cur {
		if prev[l] {
			shared++
		}
	}
	return float64(shared) / float64(len(cur))
}

// topShare computes the share of delivery-edge uses landing on the top
// 5% (at least one) of links across the window's trees. Each tree
// contributes each of its edges once.
func topShare(window []map[trace.Link]bool) float64 {
	uses := make(map[trace.Link]int)
	total := 0
	for _, set := range window {
		for l := range set {
			uses[l]++
			total++
		}
	}
	if total == 0 {
		return 0
	}
	links := make([]trace.Link, 0, len(uses))
	for l := range uses {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		a, b := links[i], links[j]
		if uses[a] != uses[b] {
			return uses[a] > uses[b]
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
	k := (len(links) + 19) / 20 // ceil(5%)
	if k < 1 {
		k = 1
	}
	top := 0
	for _, l := range links[:k] {
		top += uses[l]
	}
	return float64(top) / float64(total)
}

func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
