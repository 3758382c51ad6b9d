package trace

import (
	"time"

	"emcast/internal/ids"
	"emcast/internal/peer"
)

// reference is the oracle the Streaming fold is pinned against: a raw
// event log that derives every aggregate at query time, with plain maps
// and none of Streaming's tables, so a bookkeeping bug in the fold cannot
// hide in code the two share.
type reference struct {
	events []refEvent
}

type refKind int

const (
	refMulticast refKind = iota
	refDelivered
	refPayload
	refControl
	refDuplicate
	refMiss
	refRetain
)

// refEvent is one traced call, in arrival order. node is the origin,
// delivering node or sender; to is the receiver; at doubles as the span
// start of a retain mark, whose end is until.
type refEvent struct {
	kind      refKind
	node, to  peer.ID
	id        ids.ID
	at, until time.Duration
	bytes     int
	eager     bool
}

func (r *reference) Multicast(origin peer.ID, id ids.ID, at time.Duration) {
	r.events = append(r.events, refEvent{kind: refMulticast, node: origin, id: id, at: at})
}

func (r *reference) Delivered(node peer.ID, id ids.ID, at time.Duration) {
	r.events = append(r.events, refEvent{kind: refDelivered, node: node, id: id, at: at})
}

func (r *reference) PayloadSent(from, to peer.ID, id ids.ID, bytes int, eager bool) {
	r.events = append(r.events, refEvent{kind: refPayload, node: from, to: to, id: id, bytes: bytes, eager: eager})
}

func (r *reference) ControlSent(from, to peer.ID, kind string, bytes int) {
	r.events = append(r.events, refEvent{kind: refControl, node: from, to: to, bytes: bytes})
}

func (r *reference) DuplicatePayload(node peer.ID, id ids.ID) {
	r.events = append(r.events, refEvent{kind: refDuplicate, node: node, id: id})
}

func (r *reference) RequestMiss(node peer.ID, id ids.ID) {
	r.events = append(r.events, refEvent{kind: refMiss, node: node, id: id})
}

// RetainCompletions logs the mark in event order: it applies to messages
// whose multicast is traced after it.
func (r *reference) RetainCompletions(from, to time.Duration) {
	r.events = append(r.events, refEvent{kind: refRetain, at: from, until: to})
}

// counters derives the scalar Counters.
func (r *reference) counters() Counters {
	var c Counters
	for _, e := range r.events {
		switch e.kind {
		case refDelivered:
			c.TotalDelivered++
		case refPayload:
			c.TotalPayloads++
			c.PayloadBytes += e.bytes
			if e.eager {
				c.EagerPayloads++
			} else {
				c.LazyPayloads++
			}
		case refControl:
			c.ControlFrames++
			c.ControlBytes += e.bytes
		case refDuplicate:
			c.Duplicates++
		case refMiss:
			c.RequestMisses++
		}
	}
	return c
}

// links derives the per-link payload loads.
func (r *reference) links() map[Link]LinkLoad {
	out := map[Link]LinkLoad{}
	for _, e := range r.events {
		if e.kind == refPayload {
			l := MakeLink(e.node, e.to)
			load := out[l]
			load.Payloads++
			load.Bytes += e.bytes
			out[l] = load
		}
	}
	return out
}

// nodePayloads derives the per-sender payload counts.
func (r *reference) nodePayloads() map[peer.ID]int {
	out := map[peer.ID]int{}
	for _, e := range r.events {
		if e.kind == refPayload {
			out[e.node]++
		}
	}
	return out
}

// refMessage is one message's life as the reference derives it.
type refMessage struct {
	id        ids.ID
	origin    peer.ID
	sentAt    time.Duration
	delivered map[peer.ID]bool
	// deliveries are every Delivered event, peer.None included.
	deliveries []refEvent
	payloads   int
	// retained is whether a mark traced before the multicast covers it;
	// orphans are never retained.
	retained bool
}

// latencies are the non-origin delivery latencies in delivery order,
// empty for an orphan.
func (m *refMessage) latencies() []float64 {
	var out []float64
	if m.sentAt < 0 {
		return out
	}
	for _, d := range m.deliveries {
		if d.node != m.origin {
			out = append(out, float64(d.at-m.sentAt))
		}
	}
	return out
}

// completionAmong mirrors MsgStats.CompletionAmong: the last delivery to
// a live node when completions were retained, and not-ok for a delivered
// message whose completions were not.
func (m *refMessage) completionAmong(live map[peer.ID]bool) (time.Duration, bool) {
	if !m.retained {
		return 0, len(m.deliveries) == 0
	}
	var last time.Duration
	for _, d := range m.deliveries {
		if live[d.node] && d.at > last {
			last = d.at
		}
	}
	return last, true
}

// messages derives the per-message lives in first-appearance order. A
// message appears at its first Multicast or, failing that, at its first
// delivery (an orphan: unknown origin, negative sentAt). Payloads count
// every PayloadSent for the id, whenever it was traced.
func (r *reference) messages() []*refMessage {
	byID := map[ids.ID]*refMessage{}
	var order []*refMessage
	var spans []span
	payloads := map[ids.ID]int{}
	for _, e := range r.events {
		switch e.kind {
		case refRetain:
			spans = append(spans, span{from: e.at, to: e.until})
		case refPayload:
			payloads[e.id]++
		case refMulticast:
			if byID[e.id] != nil {
				continue
			}
			m := &refMessage{id: e.id, origin: e.node, sentAt: e.at, delivered: map[peer.ID]bool{}}
			for _, sp := range spans {
				if e.at >= sp.from && e.at < sp.to {
					m.retained = true
				}
			}
			byID[e.id] = m
			order = append(order, m)
		case refDelivered:
			m := byID[e.id]
			if m == nil {
				m = &refMessage{id: e.id, origin: peer.None, sentAt: -1, delivered: map[peer.ID]bool{}}
				byID[e.id] = m
				order = append(order, m)
			}
			m.deliveries = append(m.deliveries, e)
			if e.node != peer.None {
				m.delivered[e.node] = true
			}
		}
	}
	for _, m := range order {
		m.payloads = payloads[m.id]
	}
	return order
}
