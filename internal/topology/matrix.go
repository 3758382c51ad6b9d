package topology

import (
	"container/list"
	"fmt"
	"math"
	"sync"
	"time"

	"emcast/internal/obs"
)

// Quantized row entry sizes, used for cache-budget accounting.
const (
	latEntryBytes = 4 // uint32 nanosecond ticks
	hopEntryBytes = 2 // uint16 hop counts
)

// Matrix exposes the all-pairs client-to-client shortest-path latency and
// hop counts, plus the client plane coordinates. It backs both the network
// emulator (per-packet delays) and the oracle monitors (paper §4.3 uses
// global knowledge "extracted directly from the model file").
//
// Representation. Clients are single-homed leaves — Generate attaches each
// to exactly one router over one access edge — so every client-to-client
// shortest path decomposes exactly into access edge + router-level
// shortest path + access edge (a path through another client would enter
// and leave over the same positive-latency edge, never shortest). The
// matrix therefore stores one row per *attach router* over attach routers:
// S×S entries for the S distinct attach routers in play (≤ the stub count,
// ~2944 under the default model) instead of N×N client entries, with
// client lookups synthesized by two adds. Rows are quantized: latencies as
// uint32 nanosecond ticks (lossless — path latencies here are ms-scale,
// far below the ~4.29 s ceiling; quantization asserts on overflow, and
// sub-µs link components rule out any coarser lossless unit) and hop
// counts as uint16, 2× and 4× smaller than the time.Duration and int rows
// they replace.
//
// Rows are computed lazily, on first use, and cached under an optional
// byte budget (SetBudget): when the resident rows exceed the budget the
// least-recently-used ones are dropped and recomputed on demand, so
// whole-plane scans (the streaming oracle, Stats) run in O(budget)
// resident memory. With no budget every computed row is retained, which
// still tops out at the S×S plane. Computing a row is no graph search: the
// same articulation-point argument applies one level up (see plane), so a
// row is S reads of small tables built once, on the first row. Access is
// safe for concurrent use.
type Matrix struct {
	N      int
	Coords [][2]float64

	// Immutable after ClientMatrix: the client → attach-router collapse.
	net      *Network
	stubOf   []int32  // client index → dense attach-router index
	stubNode []int    // dense attach-router index → node id
	accessNs []uint32 // client index → access-edge latency in ns

	mu         sync.Mutex
	budget     int64 // row-cache byte budget; 0 = unbounded
	resident   int64 // bytes of quantized rows currently cached
	lat        [][]uint32
	hops       [][]uint16
	lruList    *list.List // attach-router indices, most recent at front
	lruElem    []*list.Element
	latEver    []bool // latency row computed at least once
	hopsEver   []bool // hop row computed at least once
	recomputes int64  // eviction-forced row re-fills
	hits       int64  // row lookups served from the cache
	misses     int64  // row lookups that filled a row
	evictions  int64  // rows dropped by the byte budget
	plane      *plane // row-composition tables, built with the first row
}

// ClientMatrix returns the lazily computed shortest-path latency and
// hop-count matrix between every pair of clients.
func (n *Network) ClientMatrix() *Matrix {
	c := len(n.Clients)
	m := &Matrix{
		N:        c,
		Coords:   make([][2]float64, c),
		net:      n,
		stubOf:   make([]int32, c),
		accessNs: make([]uint32, c),
		lruList:  list.New(),
	}
	stubIndex := make(map[int]int32)
	for i, id := range n.Clients {
		m.Coords[i] = [2]float64{n.Nodes[id].X, n.Nodes[id].Y}
		if len(n.Adj[id]) != 1 || n.Nodes[n.Adj[id][0].To].Kind != Stub {
			// The collapse is exact only for single-homed leaf clients,
			// and rows are composed for stub attach routers; Generate
			// never produces anything else.
			panic(fmt.Sprintf("topology: client %d is not a single-homed leaf of a stub router", i))
		}
		e := n.Adj[id][0]
		idx, ok := stubIndex[e.To]
		if !ok {
			idx = int32(len(m.stubNode))
			stubIndex[e.To] = idx
			m.stubNode = append(m.stubNode, e.To)
		}
		m.stubOf[i] = idx
		m.accessNs[i] = quantizeLatNs(int64(e.Latency))
	}
	s := len(m.stubNode)
	m.lat = make([][]uint32, s)
	m.hops = make([][]uint16, s)
	m.lruElem = make([]*list.Element, s)
	m.latEver = make([]bool, s)
	m.hopsEver = make([]bool, s)
	return m
}

// SetBudget caps the bytes of quantized rows the matrix keeps resident;
// least-recently-used rows beyond the budget are evicted and recomputed
// on demand. A budget of 0 (the default) retains every computed row. The
// most recently used row is always kept, so lookups make progress under
// any budget.
func (m *Matrix) SetBudget(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.budget = bytes
	m.evictLocked()
}

// Budget returns the row-cache byte budget (0 = unbounded).
func (m *Matrix) Budget() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.budget
}

// ResidentBytes returns the bytes of quantized rows currently cached.
func (m *Matrix) ResidentBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resident
}

// Recomputes returns how many row fills were re-fills of previously
// evicted rows — the CPU price paid for the byte budget.
func (m *Matrix) Recomputes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recomputes
}

// Hits returns how many row lookups were served from the cache. Together
// with Misses it makes cache effectiveness observable: a cold cache and a
// thrashing one both show recomputes, but only thrashing shows a low
// hit/miss ratio on a warm workload.
func (m *Matrix) Hits() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits
}

// Misses returns how many row lookups had to fill a row (first-use fills
// and eviction-forced recomputes alike).
func (m *Matrix) Misses() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.misses
}

// Evictions returns how many cached rows the byte budget has dropped.
func (m *Matrix) Evictions() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evictions
}

// Rows returns the number of attach-router rows backing the client plane
// (S in the S×S representation).
func (m *Matrix) Rows() int { return len(m.stubNode) }

// Per-entry size estimates for Footprint: the fixed per-client collapse
// state and the per-attach-router bookkeeping (row slice headers, LRU
// element pointers, ever-computed flags, list.Element nodes).
const (
	perClientBytes = 4 + 4 + 16            // stubOf + accessNs + Coords
	perRouterBytes = 8 + 2*24 + 2 + 8 + 48 // stubNode + lat/hops headers + ever flags + lruElem + list node
)

// Footprint implements obs.Footprinter: the quantized rows currently
// resident in the cache (the number the byte budget governs) plus the
// fixed per-client collapse state, per-attach-router bookkeeping and,
// once built, the row-composition tables. Items is the count of rows on
// the LRU list — the cache's working set.
func (m *Matrix) Footprint() obs.Footprint {
	m.mu.Lock()
	defer m.mu.Unlock()
	return obs.Footprint{
		Subsystem: "topology",
		Bytes: m.resident +
			int64(m.N)*perClientBytes +
			int64(len(m.stubNode))*perRouterBytes +
			m.plane.bytes(),
		Items: int64(m.lruList.Len()),
	}
}

// latRowLocked returns the latency row of attach router s, computing it on
// first use (or after eviction) and marking it most recently used. With no
// byte budget nothing is ever evicted, so the per-hit LRU bookkeeping — a
// list move per lookup, right on the emulator's per-packet path — is
// skipped entirely.
func (m *Matrix) latRowLocked(s int) []uint32 {
	if m.lat[s] == nil {
		m.misses++
		m.computeRowLocked(s, false)
	} else {
		m.hits++
		if m.budget > 0 {
			m.touchLocked(s)
		}
	}
	return m.lat[s]
}

// hopRowLocked is latRowLocked for hop rows; computing a hop row fills the
// latency row in the same pass, since the tables carry both.
func (m *Matrix) hopRowLocked(s int) []uint16 {
	if m.hops[s] == nil {
		m.misses++
		m.computeRowLocked(s, true)
	} else {
		m.hits++
		if m.budget > 0 {
			m.touchLocked(s)
		}
	}
	return m.hops[s]
}

// computeRowLocked composes attach router s's row(s) from the plane tables
// (building them on the first call) and installs them, evicting older rows
// past the budget. A re-fill of data the cache held before — not the first
// hop-row fill of a latency-only row — counts as an eviction-forced
// recompute.
func (m *Matrix) computeRowLocked(s int, withHops bool) {
	if (m.lat[s] == nil && m.latEver[s]) || (withHops && m.hops[s] == nil && m.hopsEver[s]) {
		m.recomputes++
	}
	if m.plane == nil {
		m.plane = newPlane(m.net, m.stubNode)
	}
	n := len(m.stubNode)
	var lat []uint32
	var hops []uint16
	if m.lat[s] == nil {
		lat = make([]uint32, n)
	}
	if withHops && m.hops[s] == nil {
		hops = make([]uint16, n)
	}
	m.plane.fillRow(s, lat, hops)
	if lat != nil {
		m.lat[s], m.latEver[s] = lat, true
		m.resident += int64(n) * latEntryBytes
	}
	if hops != nil {
		m.hops[s], m.hopsEver[s] = hops, true
		m.resident += int64(n) * hopEntryBytes
	}
	m.touchLocked(s)
	m.evictLocked()
}

// touchLocked marks attach router s most recently used.
func (m *Matrix) touchLocked(s int) {
	if e := m.lruElem[s]; e != nil {
		m.lruList.MoveToFront(e)
		return
	}
	m.lruElem[s] = m.lruList.PushFront(s)
}

// evictLocked drops least-recently-used rows until the resident bytes fit
// the budget. The Len() > 1 floor keeps the most recently used row — the
// one a caller just computed or touched — resident under any budget.
func (m *Matrix) evictLocked() {
	if m.budget <= 0 {
		return
	}
	for m.resident > m.budget && m.lruList.Len() > 1 {
		e := m.lruList.Back()
		s := e.Value.(int)
		n := int64(len(m.stubNode))
		if m.lat[s] != nil {
			m.resident -= n * latEntryBytes
			m.lat[s] = nil
		}
		if m.hops[s] != nil {
			m.resident -= n * hopEntryBytes
			m.hops[s] = nil
		}
		m.lruList.Remove(e)
		m.lruElem[s] = nil
		m.evictions++
	}
}

// Latency returns the shortest-path latency from client i to client j.
func (m *Matrix) Latency(i, j int) time.Duration {
	if i == j {
		return 0
	}
	m.mu.Lock()
	v := m.latRowLocked(int(m.stubOf[i]))[m.stubOf[j]]
	m.mu.Unlock()
	return time.Duration(uint64(v) + uint64(m.accessNs[i]) + uint64(m.accessNs[j]))
}

// Hops returns the hop count of the shortest path from client i to j.
// Latency ties resolve to the fewest hops over all shortest paths.
func (m *Matrix) Hops(i, j int) int {
	if i == j {
		return 0
	}
	m.mu.Lock()
	h := m.hopRowLocked(int(m.stubOf[i]))[m.stubOf[j]]
	m.mu.Unlock()
	return int(h) + 2 // the two access edges
}

// LatencyRow returns client i's full latency row as a freshly allocated
// slice owned by the caller. It resolves one cached attach-router row (one
// row fill at most) and synthesizes the client entries, so a whole-matrix
// scan consuming one row at a time — the streaming oracle, Stats — stays
// within the cache budget: the backing row may be evicted as soon as the
// next row is pulled.
func (m *Matrix) LatencyRow(i int) []time.Duration {
	out := make([]time.Duration, m.N)
	m.LatencyRowInto(out, i)
	return out
}

// HopsRow is LatencyRow for hop counts.
func (m *Matrix) HopsRow(i int) []int {
	out := make([]int, m.N)
	m.HopsRowInto(out, i)
	return out
}

// LatencyRowInto is LatencyRow into a caller-owned buffer of length N,
// for scans that reuse one buffer across rows.
func (m *Matrix) LatencyRowInto(dst []time.Duration, i int) {
	m.mu.Lock()
	row := m.latRowLocked(int(m.stubOf[i]))
	m.mu.Unlock()
	// Computed rows are immutable; eviction only drops the cache
	// reference, so reading outside the lock is safe.
	ai := uint64(m.accessNs[i])
	for j := range dst {
		if j == i {
			dst[j] = 0
			continue
		}
		dst[j] = time.Duration(uint64(row[m.stubOf[j]]) + ai + uint64(m.accessNs[j]))
	}
}

// HopsRowInto is HopsRow into a caller-owned buffer of length N.
func (m *Matrix) HopsRowInto(dst []int, i int) {
	m.mu.Lock()
	row := m.hopRowLocked(int(m.stubOf[i]))
	m.mu.Unlock()
	for j := range dst {
		if j == i {
			dst[j] = 0
			continue
		}
		dst[j] = int(row[m.stubOf[j]]) + 2
	}
}

// Materialize forces every row (latencies and hop counts), paying the full
// per-attach-router cost upfront — S row fills, subject to the byte budget.
// Benchmarks and whole-matrix consumers use it; ordinary runs rely on the
// lazy per-row path.
func (m *Matrix) Materialize() {
	for s := range m.stubNode {
		m.mu.Lock()
		m.hopRowLocked(s)
		m.mu.Unlock()
	}
}

// quantizeLatNs narrows a nanosecond path latency to the uint32 row entry,
// asserting it fits: values outside [0, ~4.29s] mean an absurd or
// disconnected topology, a programming error.
func quantizeLatNs(ns int64) uint32 {
	if ns < 0 || ns > math.MaxUint32 {
		panic(fmt.Sprintf("topology: path latency %dns overflows the quantized uint32 nanosecond row (graph disconnected or latency beyond ~4.29s)", ns))
	}
	return uint32(ns)
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

// Stats computes summary statistics of the client-to-client paths. It
// consumes the matrix one source row at a time — each client's latencies
// and hop counts are synthesized into two reused buffers from the cached
// attach-router rows — so a 10k-client pass never forces a resident full
// matrix and respects the cache budget throughout. Sums accumulate in
// integers, so the result is independent of iteration batching.
func (m *Matrix) Stats(networkNodes int) Stats {
	var s Stats
	s.NetworkNodes = networkNodes
	var sumHops, sumLatNs int64
	var in56, in3960 int
	lat := make([]time.Duration, m.N)
	hops := make([]int, m.N)
	for i := 0; i < m.N; i++ {
		m.HopsRowInto(hops, i)
		m.LatencyRowInto(lat, i)
		for j := 0; j < m.N; j++ {
			if i == j {
				continue
			}
			s.ClientPairs++
			h := hops[j]
			sumHops += int64(h)
			if h >= 5 && h <= 6 {
				in56++
			}
			l := lat[j]
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
