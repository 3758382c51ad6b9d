// Package trace is the metric spine of every experiment: protocol events
// (multicasts, deliveries, payload and control transmissions) flow through
// one Tracer, playing the role of the paper's per-run logs (§5.3: "all
// messages multicast and delivered are logged for later processing", and
// "payload transmissions on each link are also recorded separately").
//
// Two collectors implement the shared Reader query interface the metric
// pipeline (package scenario's Report assembly, for the simulator and the
// live TCP harness alike) is written against:
//
//   - Streaming (the default everywhere) folds each event into running
//     aggregates — per-message delivered bitsets, latency samples and
//     payload counters, per-link loads, global Counters — and retires raw
//     events on arrival. Its memory does not grow with the raw event log,
//     which is what lets 10k-node sweep cells finish; per-delivery records
//     survive only inside RetainCompletions spans (disrupted phases whose
//     recovery time needs exact completion instants).
//
//   - Collector retains every raw Delivery and exposes whole-log
//     Snapshots, for raw-event debugging and as the reference the
//     streaming fold is pinned against (reports must be byte-identical
//     through either collector; the equivalence tests enforce it).
//
// Interval accounting diffs Checkpoints — counters plus link loads,
// O(connections) — taken at phase boundaries, never log copies.
package trace

import (
	"sync"
	"time"

	"emcast/internal/ids"
	"emcast/internal/peer"
)

// Tracer receives protocol events. A tracer handed to nodes that run on
// different goroutines — one collector shared by a fleet of TCP peers —
// must be safe for concurrent use; Streaming is not (wrap it in Locked).
type Tracer interface {
	// Multicast records that node origin multicast message id at time at.
	Multicast(origin peer.ID, id ids.ID, at time.Duration)
	// Delivered records that node delivered message id at time at.
	Delivered(node peer.ID, id ids.ID, at time.Duration)
	// PayloadSent records a full payload transmission on a link. eager
	// distinguishes scheduler-eager pushes from lazy IWANT-served
	// retransmissions.
	PayloadSent(from, to peer.ID, id ids.ID, bytes int, eager bool)
	// ControlSent records a control frame (IHAVE, IWANT) transmission.
	ControlSent(from, to peer.ID, kind string, bytes int)
	// DuplicatePayload records receipt of a payload for an
	// already-received message (redundant transmission).
	DuplicatePayload(node peer.ID, id ids.ID)
	// RequestMiss records an IWANT for a payload no longer cached.
	RequestMiss(node peer.ID, id ids.ID)
}

// Nop is a Tracer that discards all events.
type Nop struct{}

// Multicast implements Tracer.
func (Nop) Multicast(peer.ID, ids.ID, time.Duration) {}

// Delivered implements Tracer.
func (Nop) Delivered(peer.ID, ids.ID, time.Duration) {}

// PayloadSent implements Tracer.
func (Nop) PayloadSent(peer.ID, peer.ID, ids.ID, int, bool) {}

// ControlSent implements Tracer.
func (Nop) ControlSent(peer.ID, peer.ID, string, int) {}

// DuplicatePayload implements Tracer.
func (Nop) DuplicatePayload(peer.ID, ids.ID) {}

// RequestMiss implements Tracer.
func (Nop) RequestMiss(peer.ID, ids.ID) {}

var _ Tracer = Nop{}

// Delivery is one recorded delivery.
type Delivery struct {
	Node peer.ID
	At   time.Duration
}

// Message aggregates the life of one multicast message.
type Message struct {
	ID         ids.ID
	Origin     peer.ID
	SentAt     time.Duration
	Deliveries []Delivery
}

// Link identifies an undirected node pair; the paper analyses traffic per
// connection, and NeEM connections are bidirectional TCP links.
type Link struct {
	A, B peer.ID
}

// MakeLink normalises the endpoint order.
func MakeLink(a, b peer.ID) Link {
	if a > b {
		a, b = b, a
	}
	return Link{A: a, B: b}
}

// LinkLoad accumulates payload traffic over one link.
type LinkLoad struct {
	Payloads int
	Bytes    int
}

// Collector is a Tracer that aggregates events in memory.
type Collector struct {
	mu sync.Mutex

	messages map[ids.ID]*Message
	order    []ids.ID

	payloadByMsg map[ids.ID]int
	core         counterCore
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		messages:     make(map[ids.ID]*Message),
		payloadByMsg: make(map[ids.ID]int),
		core:         newCounterCore(),
	}
}

// Multicast implements Tracer.
func (c *Collector) Multicast(origin peer.ID, id ids.ID, at time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.messages[id]; !ok {
		c.messages[id] = &Message{ID: id, Origin: origin, SentAt: at}
		c.order = append(c.order, id)
	}
}

// Delivered implements Tracer.
func (c *Collector) Delivered(node peer.ID, id ids.ID, at time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.messages[id]
	if !ok {
		// Delivery of a message whose multicast was not traced (can
		// happen in partial traces); record it with unknown origin.
		m = &Message{ID: id, Origin: peer.None, SentAt: -1}
		c.messages[id] = m
		c.order = append(c.order, id)
	}
	m.Deliveries = append(m.Deliveries, Delivery{Node: node, At: at})
	c.core.deliveredEvent()
}

// PayloadSent implements Tracer.
func (c *Collector) PayloadSent(from, to peer.ID, id ids.ID, bytes int, eager bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.core.payloadEvent(from, to, bytes, eager)
	c.payloadByMsg[id]++
}

// ControlSent implements Tracer.
func (c *Collector) ControlSent(from, to peer.ID, kind string, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.core.controlEvent(bytes)
}

// DuplicatePayload implements Tracer.
func (c *Collector) DuplicatePayload(node peer.ID, id ids.ID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.core.duplicateEvent()
}

// RequestMiss implements Tracer.
func (c *Collector) RequestMiss(node peer.ID, id ids.ID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.core.requestMissEvent()
}

var _ Tracer = (*Collector)(nil)

// Snapshot is an immutable copy of the collected data.
type Snapshot struct {
	Messages      []Message
	Links         map[Link]LinkLoad
	PayloadByNode map[peer.ID]int
	// PayloadByMsg counts payload transmissions per message, so windowed
	// analyses can attribute bandwidth to the exact messages of a phase.
	PayloadByMsg map[ids.ID]int

	TotalPayloads  int
	EagerPayloads  int
	LazyPayloads   int
	PayloadBytes   int
	ControlFrames  int
	ControlBytes   int
	Duplicates     int
	RequestMisses  int
	TotalDelivered int
}

// Snapshot copies the current state for analysis.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Messages:       make([]Message, 0, len(c.order)),
		Links:          make(map[Link]LinkLoad, c.core.links.count),
		PayloadByNode:  c.core.nodePayloads(),
		PayloadByMsg:   make(map[ids.ID]int, len(c.payloadByMsg)),
		TotalPayloads:  c.core.counters.TotalPayloads,
		EagerPayloads:  c.core.counters.EagerPayloads,
		LazyPayloads:   c.core.counters.LazyPayloads,
		PayloadBytes:   c.core.counters.PayloadBytes,
		ControlFrames:  c.core.counters.ControlFrames,
		ControlBytes:   c.core.counters.ControlBytes,
		Duplicates:     c.core.counters.Duplicates,
		RequestMisses:  c.core.counters.RequestMisses,
		TotalDelivered: c.core.counters.TotalDelivered,
	}
	for _, id := range c.order {
		m := c.messages[id]
		cp := *m
		cp.Deliveries = append([]Delivery(nil), m.Deliveries...)
		s.Messages = append(s.Messages, cp)
	}
	c.core.links.forEach(func(l uint64, load *LinkLoad) {
		s.Links[Link{A: peer.ID(l >> 32), B: peer.ID(l & 0xffffffff)}] = *load
	})
	for id, k := range c.payloadByMsg {
		s.PayloadByMsg[id] = k
	}
	return s
}

// Checkpoint implements Reader.
func (c *Collector) Checkpoint() Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.core.checkpoint()
}

// MessageStats implements Reader by deriving the aggregates from the
// retained raw events at query time — the reference the Streaming
// collector's incremental folding is pinned against (the equivalence
// tests byte-compare reports produced through both paths).
func (c *Collector) MessageStats() []MsgStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]MsgStats, 0, len(c.order))
	for _, id := range c.order {
		m := c.messages[id]
		ms := MsgStats{
			ID:          m.ID,
			Origin:      m.Origin,
			SentAt:      m.SentAt,
			Deliveries:  len(m.Deliveries),
			Payloads:    c.payloadByMsg[id],
			completions: m.Deliveries,
		}
		if ms.completions == nil {
			// HasCompletions must hold for every full-trace message,
			// delivered or not.
			ms.completions = []Delivery{}
		}
		for _, d := range m.Deliveries {
			if d.Node != peer.None {
				ms.delivered.set(uint32(d.Node))
			}
			if m.SentAt >= 0 && d.Node != m.Origin {
				ms.Latencies = append(ms.Latencies, float64(d.At-m.SentAt))
			}
		}
		out = append(out, ms)
	}
	return out
}

// NodePayloads implements Reader.
func (c *Collector) NodePayloads() map[peer.ID]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.core.nodePayloads()
}

var _ Reader = (*Collector)(nil)
