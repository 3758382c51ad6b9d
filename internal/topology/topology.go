// Package topology generates Inet-3.0-style transit-stub network models and
// derives the end-to-end latency and hop matrices used by the network
// emulator and by the oracle performance monitors.
//
// The paper (§5.1) evaluates over a ModelNet emulation of an Inet-3.0
// topology with 3037 network nodes where link latency is assigned according
// to pseudo-geographical distance, client nodes attach to distinct stub
// nodes with 1 ms latency, and the resulting client-to-client paths have an
// average hop distance of 5.54 (74.28% of pairs within 5-6 hops) and an
// average end-to-end latency of 49.83 ms (50% of pairs within 39-60 ms).
// This package reproduces that construction: a two-level transit-stub
// hierarchy embedded in a plane, distance-proportional link latencies, and
// shortest-path all-pairs client matrices. Default parameters are
// calibrated so the generated models land in the same latency and hop bands.
//
// The client matrix materialises no pair (see Matrix): a lookup composes
// the path from sub-megabyte per-domain tables, so the latency plane costs
// a few bytes per client at any population.
package topology

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Kind classifies a network node.
type Kind int

// Node kinds. Transit nodes form the AS-level backbone, stub nodes form
// edge domains, and client nodes host protocol instances.
const (
	Transit Kind = iota + 1
	Stub
	Client
)

// String returns a human-readable node kind.
func (k Kind) String() string {
	switch k {
	case Transit:
		return "transit"
	case Stub:
		return "stub"
	case Client:
		return "client"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Params configures topology generation. The zero value is not valid; start
// from DefaultParams.
type Params struct {
	// TransitDomains is the number of backbone (transit) domains.
	TransitDomains int
	// TransitPerDomain is the number of transit routers per domain.
	TransitPerDomain int
	// StubDomainsPerTransit is the number of stub domains hanging off
	// each transit router.
	StubDomainsPerTransit int
	// StubPerDomain is the number of stub routers per stub domain.
	StubPerDomain int
	// Clients is the number of client (protocol) nodes, each attached to
	// a distinct stub router.
	Clients int
	// Seed drives all randomness in generation.
	Seed int64

	// PlaneSize is the side of the square plane nodes are embedded in,
	// in abstract distance units.
	PlaneSize float64
	// MsPerUnit converts plane distance to link latency.
	MsPerUnit float64
	// ClientStubLatency is the fixed client-to-stub access latency
	// (paper: 1 ms).
	ClientStubLatency time.Duration
}

// DefaultParams returns parameters calibrated to reproduce the paper's
// network model: ~3000 network nodes and client-to-client paths averaging
// ~5.5 hops and ~50 ms.
func DefaultParams() Params {
	return Params{
		TransitDomains:        4,
		TransitPerDomain:      8,
		StubDomainsPerTransit: 4,
		StubPerDomain:         23,
		Clients:               100,
		Seed:                  1,
		PlaneSize:             10000,
		MsPerUnit:             0.0074,
		ClientStubLatency:     time.Millisecond,
	}
}

// Scaled returns a copy of p with the router population scaled down by
// factor while keeping Clients intact. Used by fast tests and benchmarks.
func (p Params) Scaled(factor int) Params {
	if factor <= 1 {
		return p
	}
	q := p
	q.StubPerDomain = maxInt(2, p.StubPerDomain/factor)
	q.StubDomainsPerTransit = maxInt(1, p.StubDomainsPerTransit)
	return q
}

// Node is a vertex of the generated network.
type Node struct {
	Kind   Kind
	X, Y   float64
	Domain int // transit or stub domain index; -1 for clients
}

// Edge is a directed adjacency entry.
type Edge struct {
	To      int
	Latency time.Duration
}

// Network is a generated transit-stub topology.
type Network struct {
	Params  Params
	Nodes   []Node
	Adj     [][]Edge
	Clients []int // node indices of client nodes, in client order
}

// Generate builds a network from p. It panics on structurally invalid
// parameters (counts below 1) since those are programming errors.
func Generate(p Params) *Network {
	if p.TransitDomains < 1 || p.TransitPerDomain < 1 ||
		p.StubDomainsPerTransit < 1 || p.StubPerDomain < 1 || p.Clients < 1 {
		panic(fmt.Sprintf("topology: invalid params %+v", p))
	}
	rng := rand.New(rand.NewSource(p.Seed))
	n := &Network{Params: p}

	// Place transit domains on a jittered circle to keep inter-domain
	// distances comparable (continental backbones).
	centers := make([][2]float64, p.TransitDomains)
	cx, cy := p.PlaneSize/2, p.PlaneSize/2
	radius := p.PlaneSize * 0.35
	for d := range centers {
		angle := 2*math.Pi*float64(d)/float64(p.TransitDomains) + rng.Float64()*0.3
		centers[d] = [2]float64{
			cx + radius*math.Cos(angle) + rng.NormFloat64()*p.PlaneSize*0.02,
			cy + radius*math.Sin(angle) + rng.NormFloat64()*p.PlaneSize*0.02,
		}
	}

	transit := make([][]int, p.TransitDomains)
	for d := 0; d < p.TransitDomains; d++ {
		for i := 0; i < p.TransitPerDomain; i++ {
			id := n.addNode(Node{
				Kind:   Transit,
				X:      clamp(centers[d][0]+rng.NormFloat64()*p.PlaneSize*0.05, 0, p.PlaneSize),
				Y:      clamp(centers[d][1]+rng.NormFloat64()*p.PlaneSize*0.05, 0, p.PlaneSize),
				Domain: d,
			})
			transit[d] = append(transit[d], id)
		}
		// Intra-domain backbone: transit routers within one domain are
		// densely meshed (clique), so intra-domain transit adds at most
		// one short hop, as in AS-level transit-stub models.
		clique(n, transit[d])
	}

	// Inter-domain links: connect every pair of transit domains through
	// the geographically closest router pair, plus one random redundant
	// link, mirroring multi-homed peering.
	for a := 0; a < p.TransitDomains; a++ {
		for b := a + 1; b < p.TransitDomains; b++ {
			ia, ib := closestPair(n, transit[a], transit[b])
			n.link(ia, ib)
			ra := transit[a][rng.Intn(len(transit[a]))]
			rb := transit[b][rng.Intn(len(transit[b]))]
			if ra != ia || rb != ib {
				n.link(ra, rb)
			}
		}
	}

	// Stub domains: each transit router sponsors StubDomainsPerTransit
	// stub domains placed nearby; each stub domain is a small ring with
	// one or two gateway links up to its transit router.
	var stubs []int
	for d := 0; d < p.TransitDomains; d++ {
		for _, t := range transit[d] {
			for s := 0; s < p.StubDomainsPerTransit; s++ {
				domainID := len(stubs)*31 + t // unique-ish tag for debugging
				scx := clamp(n.Nodes[t].X+rng.NormFloat64()*p.PlaneSize*0.06, 0, p.PlaneSize)
				scy := clamp(n.Nodes[t].Y+rng.NormFloat64()*p.PlaneSize*0.06, 0, p.PlaneSize)
				var members []int
				for i := 0; i < p.StubPerDomain; i++ {
					id := n.addNode(Node{
						Kind:   Stub,
						X:      clamp(scx+rng.NormFloat64()*p.PlaneSize*0.015, 0, p.PlaneSize),
						Y:      clamp(scy+rng.NormFloat64()*p.PlaneSize*0.015, 0, p.PlaneSize),
						Domain: domainID,
					})
					members = append(members, id)
				}
				// Stub routers connect directly to their sponsor
				// transit router (single-homed stub domain) and form
				// a ring among themselves for redundancy.
				ring(n, members)
				for _, m := range members {
					n.link(m, t)
				}
				stubs = append(stubs, members...)
			}
		}
	}

	// Clients: attach each to a distinct stub router with the fixed
	// access latency. Populations beyond the stub count (10k-node sweep
	// cells against the default ~3000-router model) wrap around the same
	// random stub order, sharing access routers evenly — identical to the
	// distinct assignment whenever Clients <= stubs.
	perm := rng.Perm(len(stubs))
	for c := 0; c < p.Clients; c++ {
		attach := stubs[perm[c%len(stubs)]]
		id := n.addNode(Node{
			Kind:   Client,
			X:      n.Nodes[attach].X + rng.NormFloat64()*2,
			Y:      n.Nodes[attach].Y + rng.NormFloat64()*2,
			Domain: -1,
		})
		n.linkLatency(id, attach, p.ClientStubLatency)
		n.Clients = append(n.Clients, id)
	}
	return n
}

func (n *Network) addNode(node Node) int {
	n.Nodes = append(n.Nodes, node)
	n.Adj = append(n.Adj, nil)
	return len(n.Nodes) - 1
}

// link adds a bidirectional link with distance-derived latency.
func (n *Network) link(a, b int) {
	d := dist(n.Nodes[a], n.Nodes[b])
	lat := time.Duration(d * n.Params.MsPerUnit * float64(time.Millisecond))
	if lat < 100*time.Microsecond {
		lat = 100 * time.Microsecond
	}
	n.linkLatency(a, b, lat)
}

func (n *Network) linkLatency(a, b int, lat time.Duration) {
	n.Adj[a] = append(n.Adj[a], Edge{To: b, Latency: lat})
	n.Adj[b] = append(n.Adj[b], Edge{To: a, Latency: lat})
}

func ring(n *Network, members []int) {
	for i := range members {
		n.link(members[i], members[(i+1)%len(members)])
	}
}

func clique(n *Network, members []int) {
	for i := range members {
		for j := i + 1; j < len(members); j++ {
			n.link(members[i], members[j])
		}
	}
}

func closestPair(n *Network, as, bs []int) (int, int) {
	best := math.Inf(1)
	ba, bb := as[0], bs[0]
	for _, a := range as {
		for _, b := range bs {
			if d := dist(n.Nodes[a], n.Nodes[b]); d < best {
				best, ba, bb = d, a, b
			}
		}
	}
	return ba, bb
}

func dist(a, b Node) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}

func clamp(x, lo, hi float64) float64 {
	return math.Min(math.Max(x, lo), hi)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
