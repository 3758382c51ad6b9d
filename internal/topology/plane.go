package topology

import "fmt"

// Path costs in the plane tables are packed (latency ns << hopBits | hops):
// integer order is the lexicographic (latency, hops) order and integer
// addition concatenates paths. A path has fewer hops than its table has
// nodes — a few dozen — so the hop field never carries into the latency.
const (
	hopBits     = 16
	unreachable = uint64(1) << 62 // two of these still add without wrapping
)

// plane holds the tables router-level path costs are read from. Generate
// hangs every stub domain off exactly one transit router, so that gateway
// is an articulation point: a shortest path between two routers of one stub
// component never leaves component ∪ gateway (it would re-enter through the
// gateway it left by), and between components it is climb + transit-only
// path + climb (a detour into a third component enters and leaves through
// one router). Both hold for the lexicographic cost because every link
// latency is positive. newPlane asserts the shape; nothing handles another.
type plane struct {
	attach  []attachInfo // per dense attach-router index, as Matrix.stubNode
	comps   []pairTable  // per stub component: members in discovery order, gateway last
	transit pairTable    // over the transit-only subgraph
}

type attachInfo struct {
	comp, local int32  // stub component and index in its table
	gate        int32  // the component's gateway, as an index into transit
	up          uint64 // cheapest climb to the gateway, inside component ∪ gateway
}

// pairTable is a k×k all-pairs table of packed path costs.
type pairTable struct {
	k    int
	cost []uint64
}

func (t pairTable) row(i int) []uint64 { return t.cost[i*t.k:][:t.k] }

// newPlane finds the stub components from the graph (connected components
// of the stub-only subgraph), checks each has exactly one gateway, and
// builds the per-component and transit tables.
func newPlane(n *Network, attach []int) *plane {
	comp := make([]int32, len(n.Nodes))  // stub → component
	local := make([]int32, len(n.Nodes)) // stub → index in its table; transit → index in the transit table
	slot := make([]int32, len(n.Nodes))  // allPairs scratch
	for i := range comp {
		comp[i], slot[i] = -1, -1
	}
	var transit []int
	for id, node := range n.Nodes {
		if node.Kind == Transit {
			local[id] = int32(len(transit))
			transit = append(transit, id)
		}
	}
	p := &plane{transit: n.allPairs(transit, slot)}
	var gates []int32 // component → gateway's transit index
	for root, node := range n.Nodes {
		if node.Kind != Stub || comp[root] >= 0 {
			continue
		}
		c := int32(len(p.comps))
		comp[root] = c
		members, gate := []int{root}, -1
		for i := 0; i < len(members); i++ {
			local[members[i]] = int32(i)
			for _, e := range n.Adj[members[i]] {
				switch n.Nodes[e.To].Kind {
				case Stub:
					if comp[e.To] < 0 {
						comp[e.To] = c
						members = append(members, e.To)
					}
				case Transit:
					if gate >= 0 && gate != e.To {
						panic(fmt.Sprintf("topology: stub component %d (router %d, domain tag %d) has two gateways, transit routers %d and %d",
							c, root, node.Domain, gate, e.To))
					}
					gate = e.To
				}
			}
		}
		if gate < 0 {
			panic(fmt.Sprintf("topology: stub component %d (router %d, domain tag %d) has no gateway", c, root, node.Domain))
		}
		p.comps = append(p.comps, n.allPairs(append(members, gate), slot))
		gates = append(gates, local[gate])
	}
	p.attach = make([]attachInfo, len(attach))
	for s, node := range attach {
		c, t := comp[node], p.comps[comp[node]]
		p.attach[s] = attachInfo{comp: c, local: local[node], gate: gates[c], up: t.row(int(local[node]))[t.k-1]}
	}
	return p
}

// bytes is what the tables retain: 8 per table entry, 24 per attachInfo.
func (p *plane) bytes() int64 {
	b := int64(len(p.transit.cost))*8 + int64(len(p.attach))*24
	for _, t := range p.comps {
		b += int64(len(t.cost)) * 8
	}
	return b
}

// allPairs returns the Floyd–Warshall closure of the subgraph induced by
// nodes. slot is an all −1 scratch over node ids, handed back all −1.
func (n *Network) allPairs(nodes []int, slot []int32) pairTable {
	k := len(nodes)
	t := pairTable{k: k, cost: make([]uint64, k*k)}
	for i := range t.cost {
		t.cost[i] = unreachable
	}
	for i, u := range nodes {
		slot[u] = int32(i)
	}
	for i, u := range nodes {
		row := t.row(i)
		for _, e := range n.Adj[u] {
			if j := slot[e.To]; j >= 0 {
				row[j] = min(row[j], uint64(e.Latency)<<hopBits|1)
			}
		}
		row[i] = 0
	}
	for _, u := range nodes {
		slot[u] = -1
	}
	for via := 0; via < k; via++ {
		viaRow := t.row(via)
		for i := 0; i < k; i++ {
			row, head := t.row(i), t.cost[i*k+via]
			if head == unreachable {
				continue
			}
			for j, tail := range viaRow {
				row[j] = min(row[j], head+tail)
			}
		}
	}
	return t
}

// cost returns the packed cost of the path between attach routers s and t:
// one table read within a component, climb + transit + climb across two.
func (p *plane) cost(s, t int32) uint64 {
	a, b := &p.attach[s], &p.attach[t]
	if a.comp == b.comp {
		return p.comps[a.comp].row(int(a.local))[b.local]
	}
	return a.up + p.transit.row(int(a.gate))[b.gate] + b.up
}
