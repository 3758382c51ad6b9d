package emcast

import (
	"fmt"
	"sync"
	"time"

	"emcast/internal/core"
	"emcast/internal/faults"
	"emcast/internal/ids"
	"emcast/internal/neem"
	"emcast/internal/peer"
	"emcast/internal/ranking"
	"emcast/internal/strategy"
	"emcast/internal/trace"
)

// PeerConfig configures a real-network protocol node.
type PeerConfig struct {
	// Self is this node's identifier; it must be unique in the group.
	Self NodeID
	// ListenAddr is the TCP address to listen on (e.g. ":7946", or
	// "127.0.0.1:0" to bind an ephemeral port — read it back with Addr).
	ListenAddr string
	// Peers maps every other node's identifier to its address (the
	// initial address book; AddPeer extends it at run time).
	Peers map[NodeID]string
	// Bootstrap, when non-nil, selects which address-book entries seed
	// the initial partial view; nil seeds from every entry. An empty
	// non-nil slice starts the peer outside the overlay — it knows
	// addresses but no members, the state a fresh node is in before it
	// calls Join (churn experiments and live scenario playback).
	Bootstrap []NodeID

	// Strategy selects the transmission strategy, one of the Strategy
	// constants. Default Eager.
	Strategy Strategy
	// FlatP is Flat's eager probability (default 0.5).
	FlatP float64
	// TTLRounds is TTL's and Hybrid's round threshold (default 2).
	TTLRounds int
	// RadiusMs is Radius' and Hybrid's one-way latency radius in
	// milliseconds, which both require; the built-in RTT monitor
	// measures the distance to each peer.
	RadiusMs float64
	// Hubs designates the Ranked and Hybrid best nodes, e.g.
	// well-provisioned machines (the paper suggests an ISP may configure
	// these explicitly). When empty, both fall back to the gossip-based
	// ranking protocol: hubs are discovered at run time from RTT
	// measurements spread epidemically, with BestFraction of the group
	// acting as hubs.
	Hubs []NodeID
	// BestFraction is the hub fraction for gossip-ranked deployments
	// (default 0.2).
	BestFraction float64

	// Fanout overrides the gossip fanout (default 11).
	Fanout int
	// Seed drives protocol randomness. Default: derived from Self.
	Seed int64

	// LinkFilter, when set, is consulted for every frame in both
	// directions: a frame from a to b is carried only when
	// LinkFilter(a, b) is true. It emulates network partitions and
	// crashed processes without OS-level tricks — the closure may read
	// shared mutable state (it is called concurrently from transport
	// goroutines), so tests and the live harness can flip partitions
	// mid-run. The protocol's lazy layer recovers across heals via
	// retransmission requests, exactly as it does across real outages.
	LinkFilter func(from, to NodeID) bool

	// Epoch, when non-zero, anchors this peer's clock so co-hosted
	// peers sharing one Epoch report event times on one comparable
	// timeline. Zero anchors at NewPeer time.
	Epoch time.Time

	// Tracer, when set, receives every protocol event (multicasts,
	// deliveries, payload and control transmissions). Co-hosted peers
	// may share one collector, which must then be safe for concurrent
	// use (trace.Locked makes one so). Nil disables tracing.
	Tracer trace.Tracer

	// OnDeliver is invoked (on a transport goroutine) for every
	// delivered message. Delivery.Payload is a read-only view, valid
	// until the upcall returns: an upcall that keeps the bytes copies
	// them (bytes.Clone). The upcall runs under the peer's lock: calling
	// Multicast — or any other method of this Peer — from inside it
	// deadlocks. Copy the payload, then hand the delivery to another
	// goroutine instead.
	OnDeliver func(Delivery)

	// OnDeparture is invoked (on a transport goroutine) when a remote
	// peer announces a graceful leave on the wire — crashed peers never
	// announce, so the hook distinguishes leaves from crashes.
	OnDeparture func(from NodeID)

	// Faults, when set, applies the fault-injection plane to this peer's
	// inbound frames (chaos testing; see internal/faults). A fleet
	// usually shares one injector so one rule set governs every link.
	Faults *faults.Injector
}

// Peer is a protocol node on a real TCP network.
type Peer struct {
	cfg       PeerConfig
	transport *neem.Transport
	clock     *neem.Clock

	// mu serialises every input of the protocol node, which takes no
	// lock of its own (see core.Node). It is taken in three places: the
	// handler given to the transport, every timer callback (lockedTimers)
	// and the public methods that reach node or table.
	mu    sync.Mutex
	node  *core.Node
	table *ranking.Table
}

// lockedTimers is the peer.Timers a Peer's node arms its timers through:
// neem.Timers with every callback run under the peer's lock.
type lockedTimers struct{ mu *sync.Mutex }

func (t lockedTimers) AfterFunc(d time.Duration, fn func()) peer.Timer {
	return neem.Timers{}.AfterFunc(d, func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		fn()
	})
}

// Arm implements peer.Arming with the same one runtime timer: the sink
// runs under the peer's lock, and the handle stops the runtime timer. A
// Stop that loses the race, its callback already waiting for the lock,
// fires a key the sink finds stale.
func (t lockedTimers) Arm(d time.Duration, sink peer.TimerSink, key uint64) peer.Timer {
	return neem.Timers{}.AfterFunc(d, func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		sink.FireTimer(key)
	})
}

// NewPeer starts a real-network protocol node: it binds the listen address,
// seeds its view from the address book, and launches the periodic overlay
// and monitoring tasks.
func NewPeer(cfg PeerConfig) (*Peer, error) {
	if cfg.ListenAddr == "" {
		return nil, fmt.Errorf("emcast: PeerConfig.ListenAddr is required")
	}
	near := cfg.Strategy == Radius || cfg.Strategy == Hybrid
	params := strategy.Params{
		Strategy:      string(cfg.Strategy),
		FlatP:         cfg.FlatP,
		TTLRounds:     cfg.TTLRounds,
		BestFraction:  cfg.BestFraction,
		EWMAMonitor:   near,
		GossipRanking: (cfg.Strategy == Ranked || cfg.Strategy == Hybrid) && len(cfg.Hubs) == 0,
	}
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("emcast: %v", err)
	}
	if near && cfg.RadiusMs <= 0 {
		return nil, fmt.Errorf("emcast: %s strategy requires RadiusMs", cfg.Strategy)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = int64(cfg.Self) + 1
	}

	clock := neem.NewClock()
	if !cfg.Epoch.IsZero() {
		clock = neem.NewClockAt(cfg.Epoch)
	}
	transport, err := neem.Listen(neem.Config{
		Self:        cfg.Self,
		ListenAddr:  cfg.ListenAddr,
		Peers:       cfg.Peers,
		Filter:      cfg.LinkFilter,
		OnDeparture: cfg.OnDeparture,
		Faults:      cfg.Faults,
	}, nil)
	if err != nil {
		return nil, err
	}

	p := &Peer{cfg: cfg, transport: transport, clock: clock}
	env := &peer.Env{
		Transport: transport,
		Clock:     clock,
		Timers:    lockedTimers{&p.mu},
	}
	// A peer knows its radius and its hubs from configuration; distances
	// come from its RTT monitor, hubs without Hubs from gossip ranking.
	hubs := make(map[NodeID]bool, len(cfg.Hubs))
	for _, h := range cfg.Hubs {
		hubs[h] = true
	}
	known := strategy.Knowledge{
		Rho:    cfg.RadiusMs,
		T0:     time.Duration(cfg.RadiusMs * float64(time.Millisecond)),
		IsBest: func(n NodeID) bool { return hubs[n] },
	}
	nodeCfg := core.DefaultConfig()
	nodeCfg.Seed = seed
	if cfg.Fanout > 0 {
		nodeCfg.Gossip.Fanout = cfg.Fanout
	}

	var deliver func(id ids.ID, payload []byte)
	if cfg.OnDeliver != nil {
		onDeliver := cfg.OnDeliver
		deliver = func(id ids.ID, payload []byte) {
			onDeliver(Delivery{
				Node:    cfg.Self,
				ID:      id,
				Payload: payload,
				At:      clock.Now(),
			})
		}
	}
	p.node = core.Assemble(nodeCfg, env, params, known, core.Options{Deliver: deliver, Tracer: cfg.Tracer})
	p.table = p.node.Ranking()
	transport.SetHandler(func(from peer.ID, frame []byte) {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.node.HandleFrame(from, frame)
	})

	// Bootstrap: seed the view from the address book, or from the
	// explicit Bootstrap subset (empty non-nil = start outside the
	// overlay and Join later).
	seedPeers := cfg.Bootstrap
	if seedPeers == nil {
		seedPeers = make([]NodeID, 0, len(cfg.Peers))
		for id := range cfg.Peers {
			seedPeers = append(seedPeers, id)
		}
	}
	p.mu.Lock() // frames may already be arriving
	defer p.mu.Unlock()
	p.node.SeedView(seedPeers)
	p.node.Start()
	return p, nil
}

// ID returns this node's identifier.
func (p *Peer) ID() NodeID { return p.cfg.Self }

// Addr returns the bound listen address (useful with ":0").
func (p *Peer) Addr() string { return p.transport.Addr().String() }

// AddPeer adds (or updates) an address-book entry at run time, so nodes
// that appear after start-up — late joiners with ephemeral listen ports —
// become reachable without restarting the peer.
func (p *Peer) AddPeer(id NodeID, addr string) {
	p.transport.AddPeer(id, addr)
}

// Join introduces this peer to the overlay through a contact node (whose
// address must be in the address book): the contact answers with a view
// sample, bootstrapping this peer's partial view. Peers started with an
// empty Bootstrap use this to enter a running group, mirroring the
// simulator's churn joins.
func (p *Peer) Join(contact NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.node.Join(contact)
}

// TransportStats returns the full transport view: frame counters with the
// per-reason loss breakdown, wire bytes in each direction, self-healing
// activity (reconnects, reaps, departures) and the instantaneous
// send-queue depth. Safe to call concurrently with a running peer, so a
// metrics scrape can watch a live fleet.
func (p *Peer) TransportStats() neem.Stats {
	return p.transport.Stats()
}

// Stall freezes this peer's transport loops for d — the live realisation
// of fault-stall injection: the process stays alive but nothing moves, so
// remote senders feel real TCP backpressure (see neem.Transport.Stall).
func (p *Peer) Stall(d time.Duration) {
	p.transport.Stall(d)
}

// Multicast disseminates payload to the whole group. The peer copies
// what it keeps, so the caller may reuse the buffer once Multicast
// returns.
func (p *Peer) Multicast(payload []byte) MessageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.node.Multicast(payload)
}

// Delivered reports whether the message has been delivered locally.
func (p *Peer) Delivered(id MessageID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.node.Delivered(id)
}

// View returns the peer's current partial view of the overlay.
func (p *Peer) View() []NodeID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.node.View()
}

// BelievesHub reports whether this peer currently considers the given node
// a hub. With explicit Hubs it is the configured set; with gossip ranking
// it is this peer's current local approximation (different peers may
// briefly disagree — the protocol tolerates that by construction).
func (p *Peer) BelievesHub(n NodeID) bool {
	if p.table != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.table.IsBest(n)
	}
	for _, h := range p.cfg.Hubs {
		if h == n {
			return true
		}
	}
	return false
}

// Close stops periodic tasks and shuts the transport down. The lock is
// held around the first only: transport.Close waits for goroutines that
// may themselves be waiting for it.
func (p *Peer) Close() error {
	p.mu.Lock()
	p.node.Stop()
	p.mu.Unlock()
	return p.transport.Close()
}
