package trace

import (
	"time"

	"emcast/internal/ids"
	"emcast/internal/peer"
)

// CausalTracer is an optional extension of Tracer for collectors that
// reconstruct per-message hop graphs. The base Tracer hooks deliberately
// omit the information needed to attribute a hop to a causal edge
// (Delivered carries no sender, ControlSent no message id,
// DuplicatePayload no source); the lazy point-to-point module — the one
// place where every frame's sender, receiver, message id and local clock
// are all in hand — emits these richer events to tracers that ask for
// them via a type assertion. The Streaming collector, which only folds
// aggregates, does not implement it and pays nothing.
//
// Implementations must be safe for concurrent use, like Tracer.
type CausalTracer interface {
	// Advertised records an IHAVE for id sent from -> to at local time at.
	Advertised(from, to peer.ID, id ids.ID, at time.Duration)
	// Requested records an IWANT for id sent from -> to (to is the
	// advertisement source being asked) at local time at.
	Requested(from, to peer.ID, id ids.ID, at time.Duration)
	// PayloadReceived records the first receipt of id's payload at node
	// to, carried by a frame from from, at local time at. It fires before
	// the payload is handed up to the gossip layer, so it always precedes
	// the matching Delivered event.
	PayloadReceived(from, to peer.ID, id ids.ID, at time.Duration)
	// DuplicateReceived is DuplicatePayload with the sender attached: a
	// redundant payload for id arrived at to from from at local time at.
	DuplicateReceived(from, to peer.ID, id ids.ID, at time.Duration)
}

// tee fans every event out to a fixed set of tracers, in order. Causal
// events are forwarded only to the members that implement CausalTracer.
type tee struct {
	ts     []Tracer
	causal []CausalTracer
}

// Tee combines tracers into one. Nil members are dropped; a single
// remaining member is returned unwrapped. The result implements
// CausalTracer (forwarding to whichever members implement it), so a
// causal collector can ride alongside the run's Streaming collector
// without the node layer knowing either exists. The metric pipeline keeps
// querying the Streaming collector directly, never through the Tee.
func Tee(tracers ...Tracer) Tracer {
	kept := make([]Tracer, 0, len(tracers))
	for _, t := range tracers {
		if t != nil {
			kept = append(kept, t)
		}
	}
	switch len(kept) {
	case 0:
		return Nop{}
	case 1:
		return kept[0]
	}
	tt := &tee{ts: kept}
	for _, t := range kept {
		if c, ok := t.(CausalTracer); ok {
			tt.causal = append(tt.causal, c)
		}
	}
	return tt
}

// Multicast implements Tracer.
func (t *tee) Multicast(origin peer.ID, id ids.ID, at time.Duration) {
	for _, x := range t.ts {
		x.Multicast(origin, id, at)
	}
}

// Delivered implements Tracer.
func (t *tee) Delivered(node peer.ID, id ids.ID, at time.Duration) {
	for _, x := range t.ts {
		x.Delivered(node, id, at)
	}
}

// PayloadSent implements Tracer.
func (t *tee) PayloadSent(from, to peer.ID, id ids.ID, bytes int, eager bool) {
	for _, x := range t.ts {
		x.PayloadSent(from, to, id, bytes, eager)
	}
}

// ControlSent implements Tracer.
func (t *tee) ControlSent(from, to peer.ID, kind string, bytes int) {
	for _, x := range t.ts {
		x.ControlSent(from, to, kind, bytes)
	}
}

// DuplicatePayload implements Tracer.
func (t *tee) DuplicatePayload(node peer.ID, id ids.ID) {
	for _, x := range t.ts {
		x.DuplicatePayload(node, id)
	}
}

// RequestMiss implements Tracer.
func (t *tee) RequestMiss(node peer.ID, id ids.ID) {
	for _, x := range t.ts {
		x.RequestMiss(node, id)
	}
}

// Advertised implements CausalTracer.
func (t *tee) Advertised(from, to peer.ID, id ids.ID, at time.Duration) {
	for _, c := range t.causal {
		c.Advertised(from, to, id, at)
	}
}

// Requested implements CausalTracer.
func (t *tee) Requested(from, to peer.ID, id ids.ID, at time.Duration) {
	for _, c := range t.causal {
		c.Requested(from, to, id, at)
	}
}

// PayloadReceived implements CausalTracer.
func (t *tee) PayloadReceived(from, to peer.ID, id ids.ID, at time.Duration) {
	for _, c := range t.causal {
		c.PayloadReceived(from, to, id, at)
	}
}

// DuplicateReceived implements CausalTracer.
func (t *tee) DuplicateReceived(from, to peer.ID, id ids.ID, at time.Duration) {
	for _, c := range t.causal {
		c.DuplicateReceived(from, to, id, at)
	}
}

var (
	_ Tracer       = (*tee)(nil)
	_ CausalTracer = (*tee)(nil)
)
