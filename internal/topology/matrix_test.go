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
// with the full-graph reference: client-to-client through all four lookup
// methods, and the backing attach-router row entry by entry (the router
// path is the client path minus the source's access edge).
func checkAgainstDijkstra(t testing.TB, net *Network, stride int) {
	m := net.ClientMatrix()
	for i := 0; i < m.N; i += stride {
		dist, hops := refDijkstra(net, net.Clients[i])
		row := m.LatencyRow(i)
		hrow := m.HopsRow(i)
		for j := 0; j < m.N; j++ {
			wantLat := time.Duration(dist[net.Clients[j]])
			if i == j {
				wantLat = 0
			}
			if m.Latency(i, j) != wantLat {
				t.Fatalf("Latency(%d,%d) = %v, reference %v", i, j, m.Latency(i, j), wantLat)
			}
			if row[j] != wantLat {
				t.Fatalf("LatencyRow(%d)[%d] = %v, reference %v", i, j, row[j], wantLat)
			}
			wantHops := int(hops[net.Clients[j]])
			if i == j {
				wantHops = 0
			}
			if m.Hops(i, j) != wantHops {
				t.Fatalf("Hops(%d,%d) = %d, reference %d", i, j, m.Hops(i, j), wantHops)
			}
			if hrow[j] != wantHops {
				t.Fatalf("HopsRow(%d)[%d] = %d, reference %d", i, j, hrow[j], wantHops)
			}
		}
		s := m.stubOf[i]
		for r, node := range m.stubNode {
			if got, want := int64(m.lat[s][r]), dist[node]-int64(m.accessNs[i]); got != want {
				t.Fatalf("router row %d (node %d) → node %d: latency %dns, reference %dns", s, m.stubNode[s], node, got, want)
			}
			if got, want := int32(m.hops[s][r]), hops[node]-1; got != want {
				t.Fatalf("router row %d (node %d) → node %d: %d hops, reference %d", s, m.stubNode[s], node, got, want)
			}
		}
	}
}

// TestQuantizedRoundTrip property-tests that the composed, uint32/uint16
// quantized rows reproduce the full-graph Dijkstra output exactly —
// latency to the nanosecond, hops to the lexicographic minimum — for every
// attach-router pair of every case.
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
// parameters and compares every client pair's latency and hops, and every
// attach-router row, against the full-graph reference.
func FuzzPlaneMatchesDijkstra(f *testing.F) {
	f.Add(uint8(4), uint8(6), uint8(3), uint8(8), uint8(64), int64(1), 10000.0, 0.0074)
	f.Fuzz(func(t *testing.T, transitDomains, transitPer, stubDomains, stubPer, clients uint8, seed int64, planeSize, msPerUnit float64) {
		// At most 100 ms across the plane: a link is ≤ 142 ms and a path a
		// dozen links, inside the quantized row's ~4.29 s.
		if !(planeSize >= 1 && msPerUnit >= 0 && planeSize*msPerUnit <= 100) {
			t.Skip("path latencies could overflow the quantized row")
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

// twoRowBudget returns a byte budget that fits roughly two full row pairs.
func twoRowBudget(m *Matrix) int64 {
	return 2 * int64(m.Rows()) * (latEntryBytes + hopEntryBytes)
}

// TestEvictionRecomputeByteEqual walks every row under a two-row budget,
// snapshots the values, then revisits the evicted rows: the on-demand
// Dijkstra recomputation must reproduce them byte for byte.
func TestEvictionRecomputeByteEqual(t *testing.T) {
	p := DefaultParams().Scaled(4)
	p.Clients = 80
	m := Generate(p).ClientMatrix()
	m.SetBudget(twoRowBudget(m))

	first := make([][]time.Duration, m.N)
	firstHops := make([][]int, m.N)
	for i := 0; i < m.N; i++ {
		first[i] = m.LatencyRow(i)
		firstHops[i] = m.HopsRow(i)
	}
	if m.Recomputes() != 0 {
		t.Fatalf("first pass already recomputed %d rows", m.Recomputes())
	}
	for i := 0; i < m.N; i++ {
		lat := m.LatencyRow(i)
		hops := m.HopsRow(i)
		for j := range lat {
			if lat[j] != first[i][j] {
				t.Fatalf("recomputed Latency(%d,%d) = %v, first pass %v", i, j, lat[j], first[i][j])
			}
			if hops[j] != firstHops[i][j] {
				t.Fatalf("recomputed Hops(%d,%d) = %d, first pass %d", i, j, hops[j], firstHops[i][j])
			}
		}
	}
	if m.Recomputes() == 0 {
		t.Fatal("two-row budget over a full walk evicted nothing")
	}
}

// TestBudgetEnforced checks the cache honours its byte budget throughout a
// scan (modulo the always-kept most recent row) and that lifting the
// budget stops eviction.
func TestBudgetEnforced(t *testing.T) {
	p := DefaultParams().Scaled(4)
	p.Clients = 60
	m := Generate(p).ClientMatrix()
	budget := twoRowBudget(m)
	m.SetBudget(budget)
	if got := m.Budget(); got != budget {
		t.Fatalf("Budget() = %d, want %d", got, budget)
	}
	for i := 0; i < m.N; i++ {
		m.HopsRow(i)
		m.LatencyRow(i)
		if r := m.ResidentBytes(); r > budget {
			t.Fatalf("resident %d bytes exceeds budget %d after row %d", r, budget, i)
		}
	}
	// A budget below one row pair still serves lookups: the most recent
	// row is never evicted.
	m.SetBudget(1)
	if m.Latency(0, 1) <= 0 {
		t.Fatal("lookup under a sub-row budget returned nonsense")
	}
	if r := m.ResidentBytes(); r <= 0 {
		t.Fatalf("resident %d bytes under sub-row budget, want the kept row", r)
	}
	// Unbounded again: a full walk retains every row.
	m.SetBudget(0)
	m.Materialize()
	want := int64(m.Rows()) * int64(m.Rows()) * (latEntryBytes + hopEntryBytes)
	if r := m.ResidentBytes(); r != want {
		t.Fatalf("resident %d bytes after unbounded Materialize, want %d", r, want)
	}
	if m.Rows() > m.N {
		t.Fatalf("more attach-router rows (%d) than clients (%d)", m.Rows(), m.N)
	}
}

// TestConcurrentTinyBudget hammers one matrix from many goroutines under a
// budget that forces constant eviction and recomputation, comparing every
// answer against an unbudgeted twin. Run with -race this doubles as the
// row-cache race test.
func TestConcurrentTinyBudget(t *testing.T) {
	p := DefaultParams().Scaled(8)
	p.Clients = 50
	net := Generate(p)
	m := net.ClientMatrix()
	m.SetBudget(twoRowBudget(m))
	ref := net.ClientMatrix() // unbudgeted twin, warmed on first use

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 400; k++ {
				i, j := rng.Intn(m.N), rng.Intn(m.N)
				if got, want := m.Latency(i, j), ref.Latency(i, j); got != want {
					errs <- "latency mismatch under concurrent eviction"
					return
				}
				if got, want := m.Hops(i, j), ref.Hops(i, j); got != want {
					errs <- "hops mismatch under concurrent eviction"
					return
				}
			}
		}(int64(g + 1))
	}
	// A concurrent whole-plane consumer, like the streaming oracle.
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Stats(0)
	}()
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestStatsBounded pins the Stats memory fix: a full statistics pass under
// a small budget keeps the resident rows within that budget instead of
// forcing the whole plane resident, and still produces the exact same
// aggregate values as an unbudgeted pass.
func TestStatsBounded(t *testing.T) {
	p := DefaultParams().Scaled(4)
	p.Clients = 80
	net := Generate(p)

	m := net.ClientMatrix()
	budget := twoRowBudget(m)
	m.SetBudget(budget)
	got := m.Stats(17)
	if r := m.ResidentBytes(); r > budget {
		t.Fatalf("Stats left %d resident bytes, budget %d", r, budget)
	}

	want := net.ClientMatrix().Stats(17)
	if got != want {
		t.Fatalf("budgeted Stats = %+v, unbudgeted %+v", got, want)
	}
}
