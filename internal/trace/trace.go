// Package trace is the metric spine of every experiment: protocol events
// (multicasts, deliveries, payload and control transmissions) flow through
// one Tracer, playing the role of the paper's per-run logs (§5.3: "all
// messages multicast and delivered are logged for later processing", and
// "payload transmissions on each link are also recorded separately").
//
// Every run collects into one Streaming collector, which the metric
// pipeline (package scenario's Report assembly, for the simulator and the
// live TCP harness alike) queries directly. It folds each event into
// running aggregates — per-message delivered bitsets, latency samples and
// payload counters, per-link loads, global Counters — and retires raw
// events on arrival. Its memory does not grow with the raw event log,
// which is what lets 10k-node sweep cells finish; per-delivery records
// survive only inside RetainCompletions spans (disrupted phases whose
// recovery time needs exact completion instants). A raw event log that
// derives the same aggregates at query time lives in the package's tests,
// as the reference the fold is pinned against.
//
// Interval accounting diffs Checkpoints — counters plus link loads,
// O(connections) — taken at phase boundaries, never log copies.
package trace

import (
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
