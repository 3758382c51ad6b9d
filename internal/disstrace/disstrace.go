// Package disstrace reconstructs per-message dissemination trees from the
// protocol event stream. The paper's headline §5 claim is qualitative:
// an unstructured eager/lazy epidemic overlay self-organises into a
// stable, low-cost broadcast tree. The aggregate counters the repo
// already collects (link top-shares, payload totals) can only hint at
// that; this package records, for a deterministic sample of message ids,
// the actual hop graph of each multicast — eager push edges, lazy
// IHAVE→IWANT→payload recovery chains, duplicate suppressions — and
// derives per-tree shape metrics (depth, fanout, eager fraction,
// critical path) plus cross-tree structure metrics (edge reuse between
// consecutive trees, sliding-window link concentration: the emergent
// stable-tree curve).
//
// The tracer implements both trace.Tracer and trace.CausalTracer and is
// attached alongside the run's primary collector via trace.Tee, so it is
// strictly read-only with respect to the seeded deterministic path:
// reports and sweep matrices are byte-identical with sampling on or off.
// Sampling itself is a pure hash of (seed, message id), so the sampled
// set is identical at any sweep worker count and comparable between a
// simulated run and a live TCP run of the same spec.
package disstrace

import (
	"encoding/binary"
	"sync"
	"time"

	"emcast/internal/ids"
	"emcast/internal/obs"
	"emcast/internal/peer"
	"emcast/internal/trace"
)

// DefaultRate is the sampling rate used when a caller enables tracing
// without choosing one: 1 in 100 message ids.
const DefaultRate = 0.01

// seedMix decorrelates the sampling hash from every other consumer of
// the run seed (engine, live harness, traffic streams each use their own
// mixer constant, per the determinism rules in ARCHITECTURE.md).
const seedMix = 0xd155ec7ab1e5eed5

// linkWindow is the sliding window (in sampled trees) for the link
// concentration metric.
const linkWindow = 10

// Config configures a Tracer.
type Config struct {
	// Rate is the fraction of message ids sampled, in [0, 1]. The
	// decision is a pure function of (Seed, id): deterministic across
	// worker counts and across sim/live runs of the same spec.
	Rate float64
	// Seed feeds the sampling hash; use the run seed.
	Seed int64
	// Obs optionally registers tree instruments (depth and edge-reuse
	// histograms, sampled-tree counter) on this registry. They populate
	// when Report is first called. Nil is fine.
	Obs *obs.Registry
}

// Event is one timeline entry of a sampled message.
type Event struct {
	// Kind is one of "multicast", "ihave", "iwant", "payload",
	// "duplicate", "delivered".
	Kind string `json:"kind"`
	// From and To are the edge endpoints. For node-local events
	// (multicast, delivered) both carry the node.
	From peer.ID `json:"from"`
	To   peer.ID `json:"to"`
	// At is the local clock of the node that observed the event.
	At time.Duration `json:"at"`
	// Eager marks payload hops served by the eager push path; lazy
	// IWANT-served retransmissions leave it false.
	Eager bool `json:"eager,omitempty"`
}

// hop is a node's first payload receipt: its parent edge in the tree.
type hop struct {
	from  peer.ID
	at    time.Duration
	eager bool
}

// tree accumulates one sampled message's hop graph.
type tree struct {
	id     ids.ID
	origin peer.ID
	sentAt time.Duration

	events      []Event
	parent      map[peer.ID]hop
	deliveredAt map[peer.ID]time.Duration
	// eagerQ matches PayloadSent eager flags to PayloadReceived events.
	// Frames on one directed link arrive in FIFO order (both the
	// emulator and TCP preserve per-link order), so a queue per directed
	// pair attributes each receipt to the exact transmission that
	// carried it.
	eagerQ map[[2]peer.ID][]bool

	adverts    int
	requests   int
	duplicates int
	misses     int
}

func newTree(id ids.ID) *tree {
	return &tree{
		id:          id,
		origin:      peer.None,
		sentAt:      -1,
		parent:      make(map[peer.ID]hop),
		deliveredAt: make(map[peer.ID]time.Duration),
		eagerQ:      make(map[[2]peer.ID][]bool),
	}
}

// Tracer is a sampling causal tracer. It is safe for concurrent use:
// real-transport deployments share one tracer across peers, and sweep
// cells run it under the parallel worker pool.
type Tracer struct {
	rate float64
	seed uint64

	mu     sync.Mutex
	trees  map[ids.ID]*tree
	order  []ids.ID
	report *TreeReport

	depthHist  *obs.Histogram
	reuseHist  *obs.Histogram
	sampledCtr *obs.Counter
}

// New creates a tracer. A Rate of zero samples nothing (every hook is a
// cheap hash-and-return); callers normally gate construction on Rate > 0.
func New(cfg Config) *Tracer {
	t := &Tracer{
		rate:  cfg.Rate,
		seed:  uint64(cfg.Seed) ^ seedMix,
		trees: make(map[ids.ID]*tree),
	}
	// The obs API is nil-safe end to end: on a nil registry these return
	// nil instruments whose methods no-op.
	t.depthHist = cfg.Obs.Histogram("disstrace_tree_depth",
		"Depth of sampled dissemination trees.",
		[]float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32})
	t.reuseHist = cfg.Obs.Histogram("disstrace_edge_reuse",
		"Edge-reuse ratio between consecutive sampled trees.",
		[]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1})
	t.sampledCtr = cfg.Obs.Counter("disstrace_sampled_trees_total",
		"Messages sampled by the dissemination tracer.")
	return t
}

// Sampled reports whether id is in the deterministic sample: a pure
// function of the tracer's seed and the id bytes, independent of event
// arrival order, worker count, or wall clock.
func (t *Tracer) Sampled(id ids.ID) bool {
	if t.rate <= 0 {
		return false
	}
	if t.rate >= 1 {
		return true
	}
	lo := binary.LittleEndian.Uint64(id[:8])
	hi := binary.LittleEndian.Uint64(id[8:])
	h := ids.Mix64(lo ^ ids.Mix64(hi^t.seed))
	return float64(h>>11)/(1<<53) < t.rate
}

// treeLocked returns (creating if needed) the tree for a sampled id.
func (t *Tracer) treeLocked(id ids.ID) *tree {
	tr, ok := t.trees[id]
	if !ok {
		tr = newTree(id)
		t.trees[id] = tr
		t.order = append(t.order, id)
	}
	return tr
}

// Multicast implements trace.Tracer.
func (t *Tracer) Multicast(origin peer.ID, id ids.ID, at time.Duration) {
	if !t.Sampled(id) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.treeLocked(id)
	if tr.origin == peer.None {
		tr.origin = origin
		tr.sentAt = at
	}
	tr.events = append(tr.events, Event{Kind: "multicast", From: origin, To: origin, At: at})
}

// Delivered implements trace.Tracer.
func (t *Tracer) Delivered(node peer.ID, id ids.ID, at time.Duration) {
	if !t.Sampled(id) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.treeLocked(id)
	if _, ok := tr.deliveredAt[node]; !ok {
		tr.deliveredAt[node] = at
	}
	tr.events = append(tr.events, Event{Kind: "delivered", From: node, To: node, At: at})
}

// PayloadSent implements trace.Tracer. Sends carry no local timestamp,
// so they do not enter the timeline; their eager flag is queued per
// directed link and consumed by the matching receipt.
func (t *Tracer) PayloadSent(from, to peer.ID, id ids.ID, bytes int, eager bool) {
	if !t.Sampled(id) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.treeLocked(id)
	k := [2]peer.ID{from, to}
	tr.eagerQ[k] = append(tr.eagerQ[k], eager)
}

// ControlSent implements trace.Tracer. Control frames carry no message
// id at this hook; the causal Advertised/Requested events cover them.
func (t *Tracer) ControlSent(from, to peer.ID, kind string, bytes int) {}

// DuplicatePayload implements trace.Tracer. Superseded by the causal
// DuplicateReceived event, which carries the sender.
func (t *Tracer) DuplicatePayload(node peer.ID, id ids.ID) {}

// RequestMiss implements trace.Tracer.
func (t *Tracer) RequestMiss(node peer.ID, id ids.ID) {
	if !t.Sampled(id) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.treeLocked(id).misses++
}

// Advertised implements trace.CausalTracer.
func (t *Tracer) Advertised(from, to peer.ID, id ids.ID, at time.Duration) {
	if !t.Sampled(id) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.treeLocked(id)
	tr.adverts++
	tr.events = append(tr.events, Event{Kind: "ihave", From: from, To: to, At: at})
}

// Requested implements trace.CausalTracer.
func (t *Tracer) Requested(from, to peer.ID, id ids.ID, at time.Duration) {
	if !t.Sampled(id) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.treeLocked(id)
	tr.requests++
	tr.events = append(tr.events, Event{Kind: "iwant", From: from, To: to, At: at})
}

// PayloadReceived implements trace.CausalTracer. The first receipt at a
// node fixes its parent edge in the dissemination tree. The origin is
// exempt: the lazy layer tracks receipts, not authorship, so a payload
// echoed back to its own source registers as a first receipt there — but
// the tree root has no parent, and counting that echo as a delivery edge
// would give an n-node tree n hops.
func (t *Tracer) PayloadReceived(from, to peer.ID, id ids.ID, at time.Duration) {
	if !t.Sampled(id) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.treeLocked(id)
	eager := tr.popEager(from, to)
	if _, ok := tr.parent[to]; !ok && to != tr.origin {
		tr.parent[to] = hop{from: from, at: at, eager: eager}
	}
	tr.events = append(tr.events, Event{Kind: "payload", From: from, To: to, At: at, Eager: eager})
}

// DuplicateReceived implements trace.CausalTracer.
func (t *Tracer) DuplicateReceived(from, to peer.ID, id ids.ID, at time.Duration) {
	if !t.Sampled(id) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.treeLocked(id)
	eager := tr.popEager(from, to)
	tr.duplicates++
	tr.events = append(tr.events, Event{Kind: "duplicate", From: from, To: to, At: at, Eager: eager})
}

// popEager consumes the oldest unmatched transmission flag on from→to.
// An empty queue (a receipt whose send was not traced, e.g. a tracer
// attached mid-run) defaults to eager, the common path.
func (tr *tree) popEager(from, to peer.ID) bool {
	k := [2]peer.ID{from, to}
	q := tr.eagerQ[k]
	if len(q) == 0 {
		return true
	}
	e := q[0]
	if len(q) == 1 {
		delete(tr.eagerQ, k)
	} else {
		tr.eagerQ[k] = q[1:]
	}
	return e
}

var (
	_ trace.Tracer       = (*Tracer)(nil)
	_ trace.CausalTracer = (*Tracer)(nil)
)
