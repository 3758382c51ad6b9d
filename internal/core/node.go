// Package core composes the full protocol stack of the paper's Fig. 1 into
// a single reusable node: the eager push gossip protocol on top, the
// Payload Scheduler (lazy point-to-point module driven by a transmission
// strategy and a performance monitor) below it, and the peer sampling
// service beside them — all over an abstract transport, so the same node
// runs unmodified inside the discrete-event emulator and over real TCP.
package core

import (
	"math"
	"time"

	"emcast/internal/gossip"
	"emcast/internal/ids"
	"emcast/internal/lazy"
	"emcast/internal/membership"
	"emcast/internal/monitor"
	"emcast/internal/msg"
	"emcast/internal/obs"
	"emcast/internal/peer"
	"emcast/internal/ranking"
	"emcast/internal/strategy"
	"emcast/internal/trace"
)

// Config aggregates the configuration of every layer. The defaults mirror
// the paper's evaluation setup (§5.2): gossip fanout 11, overlay fanout 15,
// retransmission period 400 ms.
type Config struct {
	Gossip     gossip.Config
	Lazy       lazy.Config
	Membership membership.Config

	// ShufflePeriod is how often the node initiates a view shuffle.
	// Zero disables shuffling (the simulator seeds warm views, matching
	// the paper's measured phase which starts after overlay warm-up).
	ShufflePeriod time.Duration
	// Seed drives the node's protocol randomness and id generation: each
	// purpose draws from its own stream derived from it (peer.Stream).
	Seed int64
}

// probePeriod is how often a node with a run-time monitor probes a random
// neighbour, and how often a node with a ranking table refreshes its own
// centrality score and pushes a score sample to a random neighbour
// (gossip-based ranking, paper §4.1).
const probePeriod = 500 * time.Millisecond

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config {
	return Config{
		Gossip:        gossip.Config{Fanout: 11, MaxRounds: 8},
		Lazy:          lazy.Config{RequestPeriod: 400 * time.Millisecond},
		Membership:    membership.DefaultConfig(),
		ShufflePeriod: 2 * time.Second,
	}
}

// Node is one protocol participant: a single-owner step machine. Its
// inputs — an inbound frame, a timer it armed firing (the host calls a
// sink, the node or its lazy module, with the key it armed), Multicast,
// Join, and every other method — must arrive one at a time; the host
// that owns the node serialises them. The simulator is one goroutine and
// does nothing; emcast.Peer holds one mutex per peer. Nothing in the node
// or the layers under it takes a lock.
type Node struct {
	cfg     Config
	env     *peer.Env
	view    *membership.View
	gossip  *gossip.Gossip
	lazy    *lazy.Module
	ewma    *monitor.EWMA
	ranking *ranking.Table
	tracer  trace.Tracer

	deliver     gossip.DeliverFunc
	pingNonce   uint64
	pingSent    map[uint64]pingProbe
	shuffleSent map[peer.ID][]peer.ID
	// spare holds shuffle samples whose reply came back, for the next
	// shuffle to reuse.
	spare [][]peer.ID
	// gen is the generation in the node's timer keys; Stop bumps it, so
	// every task armed before goes stale. The handles are the host's,
	// nil on the emulator.
	gen      uint32
	shuffleT peer.Timer
	pingT    peer.Timer
	rankT    peer.Timer

	// scratch is the reusable encode buffer for outbound control frames.
	// Safe because peer.Transport.Send never retains the slice.
	scratch []byte
	// sample is the reusable buffer for view samples that do not outlive
	// the input that draws them: a ping target, a shuffle or join reply.
	sample []peer.ID
	// parsed is the reusable decode scratch for inbound frames.
	parsed msg.Parsed
}

// encoder is any wire message with the msg package's append-style Encode.
type encoder interface{ Encode([]byte) []byte }

// enc serialises a control frame into the node's scratch buffer. Callers
// hand the result straight to Transport.Send.
func (n *Node) enc(f encoder) []byte {
	n.scratch = f.Encode(n.scratch[:0])
	return n.scratch
}

type pingProbe struct {
	to peer.ID
	at time.Duration
}

// Options carries the pluggable pieces of a node.
type Options struct {
	// Strategy is the transmission strategy (required).
	Strategy strategy.Strategy
	// Deliver is the application delivery upcall (optional). Its
	// payload is a view valid until it returns; keeping it means copying.
	Deliver gossip.DeliverFunc
	// Tracer records protocol events (optional).
	Tracer trace.Tracer
	// EWMA, when non-nil, is fed by ping/pong round trips every
	// probePeriod and can back run-time Radius/Hybrid strategies.
	EWMA *monitor.EWMA
	// Ranking, when non-nil, participates in the gossip-based ranking
	// protocol every probePeriod (it needs EWMA too): the node derives
	// its centrality score from EWMA observations and spreads score
	// samples epidemically. Its IsBest can back the Ranked strategy.
	Ranking *ranking.Table
	// Payloads, when non-nil, is the payload store the node keeps the
	// payloads of its cache through, shared with the other nodes given
	// the same store (the simulator gives all of a run's nodes one). Nil
	// makes the node's lazy module keep them in a private store, as a TCP
	// peer does.
	Payloads *lazy.Payloads
}

// NewNode assembles a node over env. The caller must route inbound frames
// to HandleFrame and call Start to launch periodic tasks.
func NewNode(cfg Config, env *peer.Env, opts Options) *Node {
	if opts.Strategy == nil {
		panic("core: Options.Strategy is required")
	}
	tracer := opts.Tracer
	if tracer == nil {
		tracer = trace.Nop{}
	}
	if env.RNG == nil {
		env.RNG = peer.Stream(cfg.Seed, env.Self(), peer.StreamJitter)
	}
	n := &Node{
		cfg:         cfg,
		env:         env,
		tracer:      tracer,
		deliver:     opts.Deliver,
		ewma:        opts.EWMA,
		ranking:     opts.Ranking,
		pingSent:    make(map[uint64]pingProbe),
		shuffleSent: make(map[peer.ID][]peer.ID),
	}
	n.view = membership.NewView(cfg.Membership, env.Self(), peer.Stream(cfg.Seed, env.Self(), peer.StreamMembership))
	n.lazy = lazy.New(cfg.Lazy, env, opts.Strategy, tracer)
	n.lazy.SetPayloads(opts.Payloads)
	gen := ids.NewGenerator(cfg.Seed ^ int64(env.Self())<<32 ^ 0x1e3779b97f4a7c15)
	n.gossip = gossip.New(cfg.Gossip, env.Self(), gen, n.view, n.lazy, n.appDeliver, env.Clock, tracer)
	n.lazy.SetReceiver(n.gossip)
	return n
}

// Assemble builds the node over env the same way on every substrate: it
// gives the node an EWMA monitor when p takes the Eager? metric from it or
// ranks by gossip, and a ranking table when p ranks by gossip, then builds
// p's strategy from them, k and the node's strategy stream. Callers leave
// opts.Strategy, EWMA and Ranking unset; p must have passed Validate.
func Assemble(cfg Config, env *peer.Env, p strategy.Params, k strategy.Knowledge, opts Options) *Node {
	p = p.Filled()
	var mon monitor.Monitor
	if p.EWMAMonitor || p.GossipRanking {
		opts.EWMA = monitor.NewEWMA(0.125)
	}
	if p.EWMAMonitor {
		mon = opts.EWMA
	}
	var best func(peer.ID) bool
	if p.GossipRanking {
		opts.Ranking = ranking.NewTable(ranking.Config{Fraction: p.BestFraction}, env.Self())
		best = opts.Ranking.IsBest
	}
	opts.Strategy = strategy.New(p, env.Self(), peer.Stream(cfg.Seed, env.Self(), peer.StreamStrategy), k, mon, best)
	return NewNode(cfg, env, opts)
}

func (n *Node) appDeliver(id ids.ID, payload []byte) {
	if n.deliver != nil {
		n.deliver(id, payload)
	}
}

// ID returns the node's identifier.
func (n *Node) ID() peer.ID { return n.env.Self() }

// SeedView initialises the node's partial view (bootstrap or simulator
// warm-up).
func (n *Node) SeedView(ps []peer.ID) {
	n.view.Seed(ps)
}

// View returns a copy of the node's current partial view.
func (n *Node) View() []peer.ID {
	return n.view.Peers()
}

// Start launches the node's periodic tasks (shuffling, latency probing).
func (n *Node) Start() {
	if n.cfg.ShufflePeriod > 0 {
		n.scheduleShuffle()
	}
	if n.ewma != nil {
		n.schedulePing()
	}
	if n.ranking != nil {
		n.scheduleRankGossip()
	}
}

// Stop cancels periodic tasks. In-flight frames are still handled.
func (n *Node) Stop() {
	n.gen++
	if n.shuffleT != nil {
		n.shuffleT.Stop()
	}
	if n.pingT != nil {
		n.pingT.Stop()
	}
	if n.rankT != nil {
		n.rankT.Stop()
	}
}

// Multicast disseminates payload to the overlay and returns the message
// id. The node copies what it keeps, so the caller may reuse the buffer
// once Multicast returns.
func (n *Node) Multicast(payload []byte) ids.ID {
	return n.gossip.Multicast(payload)
}

// Delivered reports whether the node has delivered message id: its
// payload was received, or the node multicast it itself (K = R ∪ own).
func (n *Node) Delivered(id ids.ID) bool {
	return n.lazy.Received(id) || n.gossip.Own(id)
}

// PendingRequests returns the number of advertised messages whose payload
// has not arrived yet.
func (n *Node) PendingRequests() int {
	return n.lazy.PendingRequests()
}

// HandleFrame routes one inbound wire frame to the owning layer. Malformed
// frames are dropped, matching the unreliable transport assumption.
//
// Decoding goes through a per-node reused msg.Parsed: the payload aliases
// the (transport-recycled) frame buffer and views point into scratch, so
// nothing here escapes per frame. Bytes are copied only where they are
// kept: the payload travels up as a view, valid for this call, to the
// gossip layer, its relays and the deliver upcall; the lazy layer copies
// it, for its payload cache, only when it advertises the message (into a
// payload store: the run's shared one in the simulator, the module's
// private one on TCP), and
// the membership merges consume views without retaining them.
func (n *Node) HandleFrame(from peer.ID, frame []byte) {
	p := &n.parsed
	if err := p.Decode(frame); err != nil {
		return
	}
	switch p.Kind {
	case msg.KindMsg:
		n.lazy.OnMsg(p.ID, p.Payload, int(p.Round), from)
	case msg.KindIHave:
		n.lazy.OnIHave(p.ID, from)
	case msg.KindIWant:
		n.lazy.OnIWant(p.ID, from)
	case msg.KindShuffle:
		// Cyclon-style exchange: answer with our own sample, then swap
		// the received entries in for the ones we just handed out.
		n.sample = n.view.ShuffleSample(n.sample)
		n.env.Transport.Send(from, n.enc(&msg.ShuffleReply{View: n.sample}))
		n.view.MergeExchange(p.View, n.sample)
	case msg.KindShuffleReply:
		sent, ok := n.shuffleSent[from]
		delete(n.shuffleSent, from)
		n.view.MergeExchange(p.View, sent)
		if ok {
			n.spare = append(n.spare, sent)
		}
	case msg.KindJoin:
		n.sample = append(n.view.ShuffleSample(n.sample), n.env.Self())
		reply := n.enc(&msg.JoinReply{View: n.sample})
		n.view.Add(from)
		n.env.Transport.Send(from, reply)
	case msg.KindJoinReply:
		n.view.MergeExchange(p.View, nil)
	case msg.KindPing:
		n.env.Transport.Send(from, n.enc(&msg.Pong{Nonce: p.Nonce}))
	case msg.KindPong:
		if probe, ok := n.pingSent[p.Nonce]; ok && probe.to == from {
			delete(n.pingSent, p.Nonce)
			if n.ewma != nil {
				n.ewma.Observe(from, n.env.Now()-probe.at)
			}
		}
	case msg.KindScores:
		if n.ranking != nil {
			n.ranking.Merge(p.Scores)
		}
	}
}

// Join introduces the node to the overlay through a contact node.
func (n *Node) Join(contact peer.ID) {
	n.view.Add(contact)
	n.env.Transport.Send(contact, n.enc(&msg.Join{}))
}

// The node's periodic tasks, the high word of its timer keys.
const (
	taskShuffle uint64 = iota
	taskPing
	taskRank
)

// arm arms a periodic task's next run, keyed with the node's generation.
func (n *Node) arm(task uint64, d time.Duration) peer.Timer {
	return n.env.Arm(n.jittered(d), n, task<<32|uint64(n.gen))
}

func (n *Node) scheduleShuffle()    { n.shuffleT = n.arm(taskShuffle, n.cfg.ShufflePeriod) }
func (n *Node) schedulePing()       { n.pingT = n.arm(taskPing, probePeriod) }
func (n *Node) scheduleRankGossip() { n.rankT = n.arm(taskRank, probePeriod) }

// FireTimer implements peer.TimerSink: a periodic task is due. It reports
// false, having done nothing, for a task armed before the last Stop.
func (n *Node) FireTimer(key uint64) bool {
	if uint32(key) != n.gen {
		return false
	}
	switch key >> 32 {
	case taskShuffle:
		n.shuffle()
		n.scheduleShuffle()
	case taskPing:
		n.ping()
		n.schedulePing()
	case taskRank:
		n.rankGossip()
		n.scheduleRankGossip()
	}
	return true
}

func (n *Node) shuffle() {
	if partner := n.view.ShufflePartner(); partner != peer.None {
		var buf []peer.ID
		if k := len(n.spare); k > 0 {
			buf = n.spare[k-1]
			n.spare = n.spare[:k-1]
		}
		sample := n.view.ShuffleSample(buf)
		n.shuffleSent[partner] = sample
		n.env.Transport.Send(partner, n.enc(&msg.Shuffle{View: sample}))
	}
	// Outstanding samples whose reply was lost must not pile up.
	if len(n.shuffleSent) > 4*n.cfg.Membership.ViewSize+64 {
		n.shuffleSent = make(map[peer.ID][]peer.ID)
	}
}

func (n *Node) ping() {
	n.sample = n.view.SampleInto(n.sample, 1)
	if len(n.sample) == 1 {
		target := n.sample[0]
		n.pingNonce++
		nonce := n.pingNonce
		n.pingSent[nonce] = pingProbe{to: target, at: n.env.Now()}
		n.env.Transport.Send(target, n.enc(&msg.Ping{Nonce: nonce}))
	}
	// Probes whose pong was lost would otherwise accumulate
	// forever; anything older than a few periods is dead.
	if len(n.pingSent) > 64 {
		cutoff := n.env.Now() - 8*probePeriod
		for nonce, probe := range n.pingSent {
			if probe.at < cutoff {
				delete(n.pingSent, nonce)
			}
		}
	}
}

func (n *Node) rankGossip() {
	n.refreshOwnScore()
	if partner := n.view.ShufflePartner(); partner != peer.None {
		if sample := n.ranking.Sample(); len(sample) > 0 {
			n.env.Transport.Send(partner, n.enc(&msg.Scores{Scores: sample}))
		}
	}
}

// refreshOwnScore derives this node's centrality score: the mean measured
// metric to the members of its partial view. Since the view is a uniform
// sample of the overlay, this estimates the node's mean distance to the
// whole group — the same criterion the oracle ranking uses globally.
func (n *Node) refreshOwnScore() {
	if n.ewma == nil {
		return
	}
	sum, count := 0.0, 0
	for _, p := range n.view.Peers() {
		if m := n.ewma.Metric(p); !math.IsInf(m, 0) {
			sum += m
			count++
		}
	}
	if count > 0 {
		n.ranking.SetOwnScore(sum / float64(count))
	}
}

// Ranking exposes the node's ranking table (nil when disabled).
func (n *Node) Ranking() *ranking.Table { return n.ranking }

// Per-entry size estimates for the node's own Footprint share: an
// outstanding ping probe (nonce key + to/at value) and a shuffle-sent map
// entry's fixed part (peer key + slice header value).
const (
	pingProbeEntry   = 8 + 16 + obs.MapEntryOverhead
	shuffleSentEntry = 4 + 24 + obs.MapEntryOverhead
)

// Footprints reports the node's per-subsystem retained bytes: the
// membership partial view, the gossip layer's own multicast ids, the lazy
// module's dedup set / payload cache / pending requests, and the node's
// own probe and shuffle bookkeeping under "core". It only reads.
func (n *Node) Footprints() []obs.Footprint {
	coreBytes := int64(len(n.pingSent)) * pingProbeEntry
	for _, sample := range n.shuffleSent {
		coreBytes += shuffleSentEntry + int64(cap(sample))*4
	}
	for _, sample := range n.spare {
		coreBytes += 24 + int64(cap(sample))*4 // slice header + entries
	}
	return []obs.Footprint{
		n.view.Footprint(),
		n.gossip.Footprint(),
		n.lazy.Footprint(),
		{Subsystem: "core", Bytes: coreBytes, Items: int64(len(n.pingSent) + len(n.shuffleSent))},
	}
}

// jittered spreads periodic tasks by ±25% so nodes do not synchronise.
func (n *Node) jittered(d time.Duration) time.Duration {
	quarter := int64(d) / 4
	if quarter <= 0 {
		return d
	}
	return d - time.Duration(quarter) + time.Duration(n.env.RNG.Int63n(2*quarter))
}
