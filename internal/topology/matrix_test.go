package topology

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// refDijkstra is an independent full-graph reference: a lexicographic
// (latency, hops) Dijkstra from one client over every node, clients
// included — the semantics the quantized attach-router representation
// must reproduce exactly.
func refDijkstra(n *Network, src int) ([]int64, []int32) {
	const inf = math.MaxInt64
	dist := make([]int64, len(n.Nodes))
	hops := make([]int32, len(n.Nodes))
	done := make([]bool, len(n.Nodes))
	for i := range dist {
		dist[i] = inf
		hops[i] = -1
	}
	dist[src] = 0
	hops[src] = 0
	pq := &nodeHeap{{node: src}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(heapItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		for _, e := range n.Adj[it.node] {
			nd := dist[it.node] + int64(e.Latency)
			nh := hops[it.node] + 1
			if nd < dist[e.To] || (nd == dist[e.To] && nh < hops[e.To]) {
				dist[e.To] = nd
				hops[e.To] = nh
				heap.Push(pq, heapItem{node: e.To, dist: nd, hops: nh})
			}
		}
	}
	return dist, hops
}

type heapItem struct {
	node int
	dist int64
	hops int32
}

type nodeHeap []heapItem

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].hops < h[j].hops
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// roundTripCase is one topology the latency plane is pinned against. Every
// stride-th client is a source; each source is compared against every
// client and every attach router.
type roundTripCase struct {
	name   string
	p      Params
	stride int
}

// roundTripCases covers the paper-size model over several seeds (once
// with every stub router hosting a client, so every router pair a client
// population can reach is in play), scaled-down router populations,
// clients wrapping the stubs and sharing attach routers, and the shapes
// where the row composition has an edge to get wrong: one- and two-router
// stub domains (ring emits a self-loop, resp. two parallel links), most
// links on the 100µs latency floor (latency ties everywhere, so hop
// tie-breaking decides), a single transit domain (no inter-domain links)
// and one stub domain per transit router.
func roundTripCases() []roundTripCase {
	def := DefaultParams()
	def.Clients = 50

	scaled := DefaultParams().Scaled(4)
	scaled.Clients = 60
	scaled.Seed = 7

	// Scaled(8) leaves 256 stub routers; 300 clients force shared stubs.
	shared := DefaultParams().Scaled(8)
	shared.Clients = 300
	shared.Seed = 3

	everyStub := DefaultParams()
	everyStub.Clients = 3000 // 2944 stub routers: all host a client, 56 host two
	everyStub.Seed = 11

	small := DefaultParams()
	small.TransitDomains, small.TransitPerDomain = 2, 3
	small.StubDomainsPerTransit, small.StubPerDomain = 2, 5
	small.Clients = 150 // ≫ 60 stubs
	vary := func(seed int64, f func(*Params)) Params {
		q := small
		q.Seed = seed
		f(&q)
		return q
	}

	cases := []roundTripCase{
		{"default", def, 1},
		{"scaled4", scaled, 1},
		{"sharedStubs", shared, 1},
		{"defaultEveryStub", everyStub, 41},
		{"stubPerDomain1", vary(21, func(q *Params) { q.StubPerDomain = 1 }), 1},
		{"stubPerDomain2", vary(22, func(q *Params) { q.StubPerDomain = 2 }), 1},
		{"latencyFloor", vary(23, func(q *Params) { q.PlaneSize, q.StubPerDomain = 400, 8 }), 1},
		{"allOnFloor", vary(24, func(q *Params) { q.PlaneSize, q.MsPerUnit = 100, 0.001 }), 1},
		{"oneTransitDomain", vary(25, func(q *Params) { q.TransitDomains = 1 }), 1},
		{"oneStubDomainPerTransit", vary(26, func(q *Params) { q.StubDomainsPerTransit = 1 }), 1},
	}
	for seed := int64(2); seed <= 6; seed++ {
		q := DefaultParams()
		q.Clients, q.Seed = 120, seed
		cases = append(cases, roundTripCase{fmt.Sprintf("defaultSeed%d", seed), q, 1})
	}
	return cases
}

// checkAgainstDijkstra compares every stride-th client's view of the plane
// with the full-graph reference: to every client, the point lookup, the
// row view's entry and the reference must be one number, for latency and
// for hops.
func checkAgainstDijkstra(t testing.TB, net *Network, stride int) {
	m := net.ClientMatrix()
	row := make([]time.Duration, m.N)
	hrow := make([]int, m.N)
	for i := 0; i < m.N; i += stride {
		dist, hops := refDijkstra(net, net.Clients[i])
		m.LatencyRowInto(row, i)
		m.HopsRowInto(hrow, i)
		for j := 0; j < m.N; j++ {
			wantLat, wantHops := time.Duration(dist[net.Clients[j]]), int(hops[net.Clients[j]])
			if i == j {
				wantLat, wantHops = 0, 0
			}
			if got := m.Latency(i, j); got != wantLat || row[j] != wantLat {
				t.Fatalf("Latency(%d,%d) = %v, LatencyRowInto entry %v, reference %v", i, j, got, row[j], wantLat)
			}
			if got := m.Hops(i, j); got != wantHops || hrow[j] != wantHops {
				t.Fatalf("Hops(%d,%d) = %d, HopsRowInto entry %d, reference %d", i, j, got, hrow[j], wantHops)
			}
		}
	}
}

// TestQuantizedRoundTrip property-tests that the composed lookups
// reproduce the full-graph Dijkstra output exactly — latency to the
// nanosecond, hops to the lexicographic minimum — for every client pair of
// every case.
func TestQuantizedRoundTrip(t *testing.T) {
	for _, c := range roundTripCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			checkAgainstDijkstra(t, Generate(c.p), c.stride)
		})
	}
}

// expectPanic runs f and returns the message it panicked with.
func expectPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return ""
}

// TestStubComponentAssertion pins that a network the row composition is
// not exact for — a stub component with a second gateway, or with none —
// fails loudly on the first lookup, naming the component, instead of
// returning wrong latencies.
func TestStubComponentAssertion(t *testing.T) {
	p := DefaultParams().Scaled(4)
	p.Clients = 20
	attachOf := func(net *Network) (stub, gate int) {
		stub = net.Adj[net.Clients[0]][0].To
		for _, e := range net.Adj[stub] {
			if net.Nodes[e.To].Kind == Transit {
				return stub, e.To
			}
		}
		t.Fatal("attach router has no transit link")
		return
	}

	t.Run("twoGateways", func(t *testing.T) {
		net := Generate(p)
		stub, gate := attachOf(net)
		second := (gate + 1) % (p.TransitDomains * p.TransitPerDomain) // transit routers are nodes 0..T-1
		net.link(stub, second)
		msg := expectPanic(t, func() { net.ClientMatrix().Latency(0, 1) })
		want := fmt.Sprintf("(router %d, domain tag %d) has two gateways", componentRoot(net, stub), net.Nodes[stub].Domain)
		if !strings.Contains(msg, "stub component") || !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not name the component (%q)", msg, want)
		}
	})

	t.Run("noGateway", func(t *testing.T) {
		net := Generate(p)
		stub, gate := attachOf(net)
		domain := net.Nodes[stub].Domain
		keep := func(from int, e Edge) bool {
			a, b := net.Nodes[from], net.Nodes[e.To]
			return !(a.Kind == Stub && a.Domain == domain && e.To == gate) &&
				!(from == gate && b.Kind == Stub && b.Domain == domain)
		}
		for from := range net.Adj {
			kept := net.Adj[from][:0]
			for _, e := range net.Adj[from] {
				if keep(from, e) {
					kept = append(kept, e)
				}
			}
			net.Adj[from] = kept
		}
		msg := expectPanic(t, func() { net.ClientMatrix().Latency(0, 1) })
		want := fmt.Sprintf("(router %d, domain tag %d) has no gateway", componentRoot(net, stub), domain)
		if !strings.Contains(msg, "stub component") || !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not name the component (%q)", msg, want)
		}
	})
}

// componentRoot returns the lowest-numbered router of stub's domain — the
// one newPlane discovers the component from and names it by.
func componentRoot(net *Network, stub int) int {
	for id, node := range net.Nodes {
		if node.Kind == Stub && node.Domain == net.Nodes[stub].Domain {
			return id
		}
	}
	return -1
}

// FuzzPlaneMatchesDijkstra generates small networks from fuzzer-chosen
// parameters and compares every client pair's latency and hops, by point
// lookup and by row view, against the full-graph reference.
func FuzzPlaneMatchesDijkstra(f *testing.F) {
	f.Add(uint8(4), uint8(6), uint8(3), uint8(8), uint8(64), int64(1), 10000.0, 0.0074)
	f.Fuzz(func(t *testing.T, transitDomains, transitPer, stubDomains, stubPer, clients uint8, seed int64, planeSize, msPerUnit float64) {
		// At most 100 ms across the plane: a link is ≤ 142 ms and a path a
		// dozen links, far inside the packed cost's 48 latency bits.
		if !(planeSize >= 1 && msPerUnit >= 0 && planeSize*msPerUnit <= 100) {
			t.Skip("link latencies out of range")
		}
		p := Params{
			TransitDomains:        1 + int(transitDomains)%4,
			TransitPerDomain:      1 + int(transitPer)%6,
			StubDomainsPerTransit: 1 + int(stubDomains)%3,
			StubPerDomain:         1 + int(stubPer)%8,
			Clients:               1 + int(clients)%64,
			Seed:                  seed,
			PlaneSize:             planeSize,
			MsPerUnit:             msPerUnit,
			ClientStubLatency:     time.Millisecond,
		}
		checkAgainstDijkstra(t, Generate(p), 1)
	})
}

// TestConcurrentFirstLookup races eight goroutines for the first lookup of
// a cold matrix — the one that builds the tables — and on through point
// lookups, row views and a whole-plane Stats, comparing every answer with
// a twin warmed beforehand. Run with -race this is the plane's race test.
func TestConcurrentFirstLookup(t *testing.T) {
	p := DefaultParams().Scaled(8)
	p.Clients = 50
	net := Generate(p)
	m, ref := net.ClientMatrix(), net.ClientMatrix()
	ref.Latency(0, 1)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			row := make([]time.Duration, m.N)
			<-start
			for k := 0; k < 400; k++ {
				i, j := rng.Intn(m.N), rng.Intn(m.N)
				if got, want := m.Latency(i, j), ref.Latency(i, j); got != want {
					t.Errorf("Latency(%d,%d) = %v, warmed twin %v", i, j, got, want)
					return
				}
				if got, want := m.Hops(i, j), ref.Hops(i, j); got != want {
					t.Errorf("Hops(%d,%d) = %d, warmed twin %d", i, j, got, want)
					return
				}
				if m.LatencyRowInto(row, i); row[j] != ref.Latency(i, j) {
					t.Errorf("LatencyRowInto(%d)[%d] = %v, warmed twin %v", i, j, row[j], ref.Latency(i, j))
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if got, want := m.Stats(0), ref.Stats(0); got != want {
			t.Errorf("concurrent Stats = %+v, warmed twin %+v", got, want)
		}
	}()
	close(start)
	wg.Wait()
}

// TestStatsBounded pins that a full statistics pass retains nothing — the
// footprint after it is the footprint before — and that its aggregates
// are the ones the point lookups give.
func TestStatsBounded(t *testing.T) {
	p := DefaultParams().Scaled(4)
	p.Clients = 80
	m := Generate(p).ClientMatrix()
	before := m.Footprint()
	got := m.Stats(17)
	if after := m.Footprint(); after != before {
		t.Fatalf("Stats moved the footprint: %+v → %+v", before, after)
	}

	want := Stats{NetworkNodes: 17}
	var sumHops, sumLat int64
	var in56, in3960 int
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			if i == j {
				continue
			}
			want.ClientPairs++
			h, l := m.Hops(i, j), m.Latency(i, j)
			sumHops += int64(h)
			sumLat += int64(l)
			if h >= 5 && h <= 6 {
				in56++
			}
			if l >= 39*time.Millisecond && l <= 60*time.Millisecond {
				in3960++
			}
		}
	}
	pairs := float64(want.ClientPairs)
	want.MeanHops, want.FracHops5to6 = float64(sumHops)/pairs, float64(in56)/pairs
	want.MeanLatency, want.FracLat39to60 = time.Duration(sumLat)/time.Duration(want.ClientPairs), float64(in3960)/pairs
	if got != want {
		t.Fatalf("Stats = %+v, from point lookups %+v", got, want)
	}
}
