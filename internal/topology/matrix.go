package topology

import (
	"fmt"
	"math"
	"sync"
	"time"

	"emcast/internal/obs"
)

// Matrix exposes the all-pairs client-to-client shortest-path latency and
// hop counts, plus the client plane coordinates. It backs both the network
// emulator (per-packet delays) and the oracle monitors (paper §4.3 uses
// global knowledge "extracted directly from the model file").
//
// Nothing is materialised per pair. Clients are single-homed leaves, so a
// client-to-client shortest path is exactly access edge + router-level
// shortest path + access edge (a path through another client would enter
// and leave over the same positive-latency edge), and the same
// articulation-point argument one level up (see plane) makes the router
// part a read of small all-pairs tables:
//
//	access(i) + [same stub component ? C[a][b] : up(a) + T(gate a, gate b) + up(b)] + access(j)
//
// The tables (≈ 0.7 MB at paper scale) are built by the first lookup and
// immutable afterwards: lookups take no lock and are safe for concurrent
// use. The row methods are views of the same expression.
type Matrix struct {
	N      int
	Coords [][2]float64

	// Immutable after ClientMatrix: the client → attach-router collapse.
	net      *Network
	stubOf   []int32         // client index → dense attach-router index
	stubNode []int           // dense attach-router index → node id
	access   []time.Duration // client index → access-edge latency

	once  sync.Once
	plane *plane // read through tables()
}

// ClientMatrix returns the shortest-path latency and hop-count matrix
// between every pair of clients.
func (n *Network) ClientMatrix() *Matrix {
	c := len(n.Clients)
	m := &Matrix{
		N:      c,
		Coords: make([][2]float64, c),
		net:    n,
		stubOf: make([]int32, c),
		access: make([]time.Duration, c),
	}
	stubIndex := make(map[int]int32)
	for i, id := range n.Clients {
		m.Coords[i] = [2]float64{n.Nodes[id].X, n.Nodes[id].Y}
		if len(n.Adj[id]) != 1 || n.Nodes[n.Adj[id][0].To].Kind != Stub {
			// The collapse is exact only for single-homed leaves, and the
			// tables cover stub routers; Generate produces nothing else.
			panic(fmt.Sprintf("topology: client %d is not a single-homed leaf of a stub router", i))
		}
		e := n.Adj[id][0]
		idx, ok := stubIndex[e.To]
		if !ok {
			idx = int32(len(m.stubNode))
			stubIndex[e.To] = idx
			m.stubNode = append(m.stubNode, e.To)
		}
		m.stubOf[i], m.access[i] = idx, e.Latency
	}
	return m
}

// tables returns the plane, building it on the first call.
func (m *Matrix) tables() *plane {
	m.once.Do(func() { m.plane = newPlane(m.net, m.stubNode) })
	return m.plane
}

// Kept for bench/ alone, which links the removed row cache's surface and
// could not be edited by the change that removed it: Materialize builds the
// tables, SetBudget does nothing, the counters read zero. The benchmark
// change that retires the four ledger rows they feed deletes this block.
func (m *Matrix) Materialize()         { m.tables() }
func (m *Matrix) SetBudget(int64)      {}
func (m *Matrix) Hits() int64          { return 0 }
func (m *Matrix) Misses() int64        { return 0 }
func (m *Matrix) Recomputes() int64    { return 0 }
func (m *Matrix) ResidentBytes() int64 { return 0 }

// Per-entry sizes for Footprint; the tables account for themselves.
const (
	perClientBytes = 4 + 8 + 16 // stubOf + access + Coords
	perRouterBytes = 8          // stubNode
)

// Footprint implements obs.Footprinter: the per-client collapse state plus
// the tables, built here if no lookup has yet. A constant — nothing the
// matrix holds grows with use. Items is the attach-router count.
func (m *Matrix) Footprint() obs.Footprint {
	return obs.Footprint{
		Subsystem: "topology",
		Bytes:     int64(m.N)*perClientBytes + int64(len(m.stubNode))*perRouterBytes + m.tables().bytes(),
		Items:     int64(len(m.stubNode)),
	}
}

// latency and hops add the two access edges to a packed router-level cost.
func (m *Matrix) latency(c uint64, i, j int) time.Duration {
	return time.Duration(c>>hopBits) + m.access[i] + m.access[j]
}

func hops(c uint64) int { return int(c&(1<<hopBits-1)) + 2 }

// Latency returns the shortest-path latency from client i to client j.
func (m *Matrix) Latency(i, j int) time.Duration {
	if i == j {
		return 0
	}
	return m.latency(m.tables().cost(m.stubOf[i], m.stubOf[j]), i, j)
}

// Hops returns the hop count of the shortest path from client i to j.
// Latency ties resolve to the fewest hops over all shortest paths.
func (m *Matrix) Hops(i, j int) int {
	if i == j {
		return 0
	}
	return hops(m.tables().cost(m.stubOf[i], m.stubOf[j]))
}

// LatencyRowInto writes client i's latency to every client into dst, a
// caller-owned buffer of length N (the oracle reuses one across sources).
func (m *Matrix) LatencyRowInto(dst []time.Duration, i int) {
	p, s := m.tables(), m.stubOf[i]
	for j := range dst {
		dst[j] = m.latency(p.cost(s, m.stubOf[j]), i, j)
	}
	dst[i] = 0
}

// HopsRowInto is LatencyRowInto for hop counts.
func (m *Matrix) HopsRowInto(dst []int, i int) {
	p, s := m.tables(), m.stubOf[i]
	for j := range dst {
		dst[j] = hops(p.cost(s, m.stubOf[j]))
	}
	dst[i] = 0
}

// Stats summarises a client matrix against the paper's §5.1 reference
// values.
type Stats struct {
	NetworkNodes int
	ClientPairs  int
	// MeanHops is the average hop distance between client pairs
	// (paper: 5.54).
	MeanHops float64
	// FracHops5to6 is the fraction of pairs within 5 and 6 hops
	// (paper: 74.28%).
	FracHops5to6 float64
	// MeanLatency is the average end-to-end latency (paper: 49.83 ms).
	MeanLatency time.Duration
	// FracLat39to60 is the fraction of pairs between 39 ms and 60 ms
	// (paper: 50%).
	FracLat39to60 float64
}

// Stats computes summary statistics of the client-to-client paths: one
// lookup per ordered pair, nothing retained, sums in integers.
func (m *Matrix) Stats(networkNodes int) Stats {
	s := Stats{NetworkNodes: networkNodes}
	var sumHops, sumLatNs int64
	var in56, in3960 int
	p := m.tables()
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			if i == j {
				continue
			}
			c := p.cost(m.stubOf[i], m.stubOf[j])
			s.ClientPairs++
			h := hops(c)
			sumHops += int64(h)
			if h >= 5 && h <= 6 {
				in56++
			}
			l := m.latency(c, i, j)
			sumLatNs += int64(l)
			if l >= 39*time.Millisecond && l <= 60*time.Millisecond {
				in3960++
			}
		}
	}
	if s.ClientPairs > 0 {
		s.MeanHops = float64(sumHops) / float64(s.ClientPairs)
		s.MeanLatency = time.Duration(sumLatNs) / time.Duration(s.ClientPairs)
		s.FracHops5to6 = float64(in56) / float64(s.ClientPairs)
		s.FracLat39to60 = float64(in3960) / float64(s.ClientPairs)
	}
	return s
}

// Distance returns the Euclidean plane distance between clients i and j,
// used by the geographic distance monitor (paper §4.2).
func (m *Matrix) Distance(i, j int) float64 {
	dx := m.Coords[i][0] - m.Coords[j][0]
	dy := m.Coords[i][1] - m.Coords[j][1]
	return math.Hypot(dx, dy)
}
