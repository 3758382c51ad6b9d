// Package gossip implements the basic eager push gossip protocol of the
// paper's Fig. 2: Multicast generates a probabilistically unique identifier
// and forwards the payload; Forward delivers locally and relays to f peers
// from the peer sampling service while the relay count is below t;
// L-Receive discards duplicates.
//
// The paper's known set K is the union of two sets: the identifiers whose
// payload this node has received — which the Payload Scheduler below
// (internal/lazy) already keeps as its received set R and checks before it
// ever calls L-Receive — and the identifiers of this node's own
// multicasts. Only the second part is stored here, so a node holds one
// dedup table per identifier, not two, and every decision Fig. 2 takes on
// K is taken on R ∪ own.
//
// Otherwise the Payload Scheduler is transparent to this layer: gossip
// only ever calls L-Send and handles L-Receive, exactly as in the paper's
// architecture (§3.1). It keeps no payload: whoever keeps bytes copies
// them, and upcalls get views. The payload of a multicast or of an
// L-Receive is a view that this layer hands, unchanged, to the deliver
// upcall and to L-Send within the call; the scheduler copies it into its
// cache if it advertises the message, and nothing else retains it.
package gossip

import (
	"emcast/internal/ids"
	"emcast/internal/obs"
	"emcast/internal/peer"
	"emcast/internal/trace"
)

// Config carries the usual gossip configuration parameters f and t
// (paper [6]).
type Config struct {
	// Fanout is f: the number of peers each message is relayed to
	// (paper evaluation: 11).
	Fanout int
	// MaxRounds is t: a message is relayed only while its round count is
	// below t (paper Fig. 2 line 8).
	MaxRounds int
}

// ownCapacity bounds the set of own multicast identifiers (FIFO eviction),
// the same bound the received set R has by default.
const ownCapacity = 65536

func (c *Config) fill() {
	if c.Fanout <= 0 {
		c.Fanout = 11
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 8
	}
}

// Sampler provides the peer sampling service primitive PeerSample(f),
// drawn into the caller's buffer (see membership.View.SampleInto).
type Sampler interface {
	SampleInto(dst []peer.ID, f int) []peer.ID
}

// Sender is the downcall interface to the payload scheduler: the paper's
// L-Send(i, d, r, p). The payload is valid for the call only; a sender
// that retains it copies it.
type Sender interface {
	LSend(id ids.ID, payload []byte, round int, to peer.ID)
}

// DeliverFunc is the application upcall Deliver(d). The payload is a view
// valid until the upcall returns; an upcall that keeps it copies it.
type DeliverFunc func(id ids.ID, payload []byte)

// Gossip is the per-node gossip state. It is not safe for concurrent use;
// the owning node's host serialises access (see core.Node).
type Gossip struct {
	cfg     Config
	self    peer.ID
	gen     *ids.Generator
	own     *ids.Set // K \ R: identifiers of this node's own multicasts
	sampler Sampler
	sender  Sender
	deliver DeliverFunc
	tracer  trace.Tracer
	clock   peer.Clock
	// sample is forward's reused PeerSample buffer. Safe because L-Send
	// never re-enters forward: a send only queues a frame.
	sample []peer.ID
}

// New creates a gossip instance for node self.
func New(cfg Config, self peer.ID, gen *ids.Generator, sampler Sampler, sender Sender, deliver DeliverFunc, clock peer.Clock, tracer trace.Tracer) *Gossip {
	cfg.fill()
	if tracer == nil {
		tracer = trace.Nop{}
	}
	return &Gossip{
		cfg:     cfg,
		self:    self,
		gen:     gen,
		own:     ids.NewSet(ownCapacity),
		sampler: sampler,
		sender:  sender,
		deliver: deliver,
		tracer:  tracer,
		clock:   clock,
	}
}

// Multicast disseminates payload to all nodes with high probability and
// returns the message identifier (paper Fig. 2, lines 3-4). The payload
// is not kept here: the deliver upcall and L-Send see it as a view, and
// the payload scheduler copies it if it caches it, so the caller may
// reuse its buffer when Multicast returns.
func (g *Gossip) Multicast(payload []byte) ids.ID {
	id := g.gen.Next()
	g.tracer.Multicast(g.self, id, g.clock.Now())
	g.own.Add(id)
	g.forward(id, payload, 0)
	return id
}

// forward implements Forward(i, d, r): deliver and relay. The id is
// already recorded: in own by Multicast, in the payload scheduler's
// received set before it called LReceive.
func (g *Gossip) forward(id ids.ID, payload []byte, round int) {
	if g.deliver != nil {
		g.deliver(id, payload)
	}
	g.tracer.Delivered(g.self, id, g.clock.Now())
	if round >= g.cfg.MaxRounds {
		return
	}
	// Fig. 2 line 11: the wire carries r+1, the relay count of the hop.
	g.sample = g.sampler.SampleInto(g.sample, g.cfg.Fanout)
	for _, p := range g.sample {
		g.sender.LSend(id, payload, round+1, p)
	}
}

// LReceive implements the paper's L-Receive upcall (Fig. 2, lines 12-14):
// forward the message unless it is a duplicate. The payload scheduler
// calls it once per identifier, on first receipt, so the only duplicate
// left to discard here is an own multicast echoed back. The received
// round is passed through unchanged; forward increments it when relaying.
func (g *Gossip) LReceive(id ids.ID, payload []byte, round int, from peer.ID) {
	if g.own.Contains(id) {
		return
	}
	g.forward(id, payload, round)
}

// Footprint implements obs.Footprinter: the retained bytes of the own
// multicast identifiers (nothing on a node that never multicast).
// Read-only.
func (g *Gossip) Footprint() obs.Footprint {
	return obs.Footprint{
		Subsystem: "gossip",
		Bytes:     g.own.FootprintBytes(),
		Items:     int64(g.own.Len()),
	}
}

// Own reports whether id is one of this node's own multicasts.
func (g *Gossip) Own(id ids.ID) bool { return g.own.Contains(id) }
