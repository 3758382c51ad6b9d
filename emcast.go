// Package emcast is a Go implementation of the epidemic multicast protocol
// with emergent structure from
//
//	N. Carvalho, J. Pereira, R. Oliveira, L. Rodrigues.
//	"Emergent Structure in Unstructured Epidemic Multicast." DSN 2007.
//
// The protocol is an eager push gossip protocol with a Payload Scheduler
// layered underneath: per transmission, a pluggable strategy decides
// whether to push the full payload (eager) or only advertise it
// (lazy IHAVE/IWANT). Biasing eager pushes towards well-placed nodes and
// links makes an efficient dissemination structure *emerge* from the
// unstructured overlay — approaching tree-based multicast performance while
// keeping gossip's resilience, since every advertisement can still be
// pulled if the structure fails.
//
// Two deployment styles are offered:
//
//   - Cluster runs any number of protocol nodes in-process over a
//     deterministic network simulator with a realistic Internet-like
//     (transit-stub) latency model — ideal for experiments, tests, and
//     protocol research. See NewCluster.
//   - Peer runs one protocol node over real TCP (see Listen/Peer.Join),
//     usable across actual machines.
//
// `emucast reproduce` judges the paper's evaluation, every table and
// figure written once as a claim in cmd/emucast/claims.json, and prints
// REPRODUCTION.md; see EXPERIMENTS.md "Claims".
package emcast

import (
	"fmt"
	"math"
	"time"

	"emcast/internal/ids"
	"emcast/internal/peer"
	"emcast/internal/scenario"
	"emcast/internal/sim"
	"emcast/internal/strategy"
	"emcast/internal/topology"
)

// MessageID identifies a multicast message (128-bit, probabilistically
// unique).
type MessageID = ids.ID

// NodeID identifies a protocol node.
type NodeID = peer.ID

// Strategy names a transmission strategy (paper §4.1, §6.4): one of the
// constants below, the vocabulary of strategy.Names.
type Strategy string

// Available strategies.
const (
	// Eager is pure eager push gossip: minimum latency, fanout-many
	// payload copies per delivery.
	Eager Strategy = "eager"
	// Lazy is pure lazy push gossip: one payload per delivery, extra
	// round-trips of latency.
	Lazy Strategy = "lazy"
	// Flat pushes eagerly with probability P.
	Flat Strategy = "flat"
	// TTL pushes eagerly during the first TTLRounds gossip rounds.
	TTL Strategy = "ttl"
	// Radius pushes eagerly to peers within a latency radius; an
	// emergent mesh concentrates payload on short links.
	Radius Strategy = "radius"
	// Ranked pushes eagerly whenever a designated best node is
	// involved; emergent hubs carry most payload.
	Ranked Strategy = "ranked"
	// Hybrid combines Ranked, Radius and TTL (paper §6.4).
	Hybrid Strategy = "hybrid"
)

// Delivery is one application-level message delivery.
type Delivery struct {
	Node NodeID
	ID   MessageID
	// Payload is the message's bytes, read-only. A Cluster's is the run's
	// kept copy of the message, shared by every node's delivery of it and
	// valid for the Cluster's life; the payload caches answer IWANTs from
	// the same bytes, so copy before modifying. The one a Peer hands its
	// OnDeliver upcall is a view, valid until the upcall returns, that the
	// upcall copies to keep.
	Payload []byte
	At      time.Duration
}

// ClusterConfig configures an in-process simulated deployment.
type ClusterConfig struct {
	// Nodes is the number of protocol participants. Default 100.
	Nodes int
	// Strategy selects the transmission strategy. Default Eager.
	Strategy Strategy
	// FlatP is Flat's eager probability (default 0.5).
	FlatP float64
	// TTLRounds is TTL's and Hybrid's round threshold (default 2).
	TTLRounds int
	// RadiusQuantile places the Radius/Hybrid radius at this quantile
	// of the pairwise latency distribution (default 0.10).
	RadiusQuantile float64
	// BestFraction is the fraction of nodes acting as Ranked/Hybrid
	// hubs (default 0.20).
	BestFraction float64
	// Noise degrades strategy accuracy per the paper's §4.3 (0..1).
	Noise float64
	// GossipRanking switches Ranked/Hybrid hub selection from global
	// knowledge to the fully decentralized gossip-based ranking
	// protocol (run-time RTT monitors + epidemic score spreading).
	GossipRanking bool
	// Loss is the simulated network frame loss probability.
	Loss float64
	// Seed makes runs reproducible. Default 1.
	Seed int64
	// TopologyScale divides the simulated router population (1 =
	// paper-size, ~3000 routers). Tests use 8.
	TopologyScale int
}

// Cluster is an in-process deployment of protocol nodes over the simulated
// network. It is driven in virtual time: Multicast schedules a message and
// Run advances the simulation. Cluster is not safe for concurrent use.
type Cluster struct {
	runner     *sim.Runner
	deliveries []Delivery
}

// NewCluster builds a simulated deployment.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	p := strategy.Params{
		Strategy: string(cfg.Strategy), FlatP: cfg.FlatP, TTLRounds: cfg.TTLRounds,
		RadiusQuantile: cfg.RadiusQuantile, BestFraction: cfg.BestFraction, Noise: cfg.Noise,
		GossipRanking: cfg.GossipRanking,
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("emcast: %v", err)
	}
	if cfg.Loss < 0 || cfg.Loss >= 1 {
		return nil, fmt.Errorf("emcast: loss %v outside [0, 1)", cfg.Loss)
	}
	sc := sim.DefaultConfig()
	if cfg.Nodes > 0 {
		sc.Nodes = cfg.Nodes
	}
	if cfg.Seed != 0 {
		sc.Seed = cfg.Seed
	}
	sc.Params = p
	sc.Loss = cfg.Loss
	if cfg.TopologyScale > 1 {
		tp := topology.DefaultParams().Scaled(cfg.TopologyScale)
		sc.Topology = &tp
	}

	c := &Cluster{}
	sc.OnDeliver = func(node peer.ID, id ids.ID, payload []byte) {
		c.deliveries = append(c.deliveries, Delivery{
			Node:    node,
			ID:      id,
			Payload: payload,
			At:      c.runner.Network().Now(),
		})
	}
	c.runner = sim.New(sc)
	c.runner.Warmup()
	return c, nil
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.runner.Nodes()) }

// Multicast sends payload from the given node to all nodes. Call Run
// afterwards to advance virtual time and let the dissemination complete.
// The cluster keeps its own copy, so the caller may reuse the buffer.
func (c *Cluster) Multicast(node int, payload []byte) (MessageID, error) {
	if node < 0 || node >= c.Size() {
		return MessageID{}, fmt.Errorf("emcast: node %d out of range [0, %d)", node, c.Size())
	}
	if c.runner.Failed(node) {
		return MessageID{}, fmt.Errorf("emcast: node %d has failed", node)
	}
	return c.runner.MulticastFrom(node, payload), nil
}

// Run advances the simulated network by d of virtual time.
func (c *Cluster) Run(d time.Duration) { c.runner.RunFor(d) }

// Now returns the current virtual time.
func (c *Cluster) Now() time.Duration { return c.runner.Network().Now() }

// Fail silences a node, emulating a crash: all its traffic is dropped from
// now on.
func (c *Cluster) Fail(node int) error {
	if node < 0 || node >= c.Size() {
		return fmt.Errorf("emcast: node %d out of range [0, %d)", node, c.Size())
	}
	c.runner.Fail(node)
	return nil
}

// IsHub reports whether the node is in the Ranked/Hybrid best set.
func (c *Cluster) IsHub(node int) bool {
	return c.runner.Best(peer.ID(node))
}

// Deliveries returns all application-level deliveries so far, in delivery
// order.
func (c *Cluster) Deliveries() []Delivery {
	return append([]Delivery(nil), c.deliveries...)
}

// Stats summarises the run so far.
func (c *Cluster) Stats() Stats {
	// The Low/Best split below is documented unconditionally, so
	// materialise the oracle ranking it is defined against even for
	// strategies that never query one (flat, ttl).
	c.runner.RankedNodes()
	m := scenario.Measure(c.runner)
	low, best := c.runner.PayloadSplit()
	return Stats{
		MessagesSent:      m.MessagesSent,
		Deliveries:        m.Deliveries,
		MeanLatency:       time.Duration(math.Round(m.MeanLatencyMS * 1e6)),
		P95Latency:        time.Duration(math.Round(m.P95LatencyMS * 1e6)),
		PayloadPerMsg:     m.PayloadPerMsg,
		PayloadPerMsgLow:  low,
		PayloadPerMsgBest: best,
		DeliveryRate:      m.DeliveryRate,
		AtomicRate:        m.AtomicRate,
		Top5LinkShare:     m.Top5LinkShare,
		Duplicates:        m.Duplicates,
		ControlFrames:     m.ControlFrames,
	}
}

// Stats are the protocol metrics of a Cluster run, mirroring the paper's
// evaluation metrics: a view of the run's scenario.Metrics plus the
// Low/Best payload split.
type Stats struct {
	// MessagesSent counts multicasts; Deliveries counts per-node
	// deliveries.
	MessagesSent int
	Deliveries   int
	// MeanLatency / P95Latency summarise end-to-end delivery latency.
	MeanLatency time.Duration
	P95Latency  time.Duration
	// PayloadPerMsg is the number of payload transmissions per message
	// delivered (1 is optimal; the gossip fanout is the eager-push
	// cost). The Low/Best variants restrict to regular/hub senders.
	PayloadPerMsg     float64
	PayloadPerMsgLow  float64
	PayloadPerMsgBest float64
	// DeliveryRate is the mean fraction of live nodes reached per
	// message; AtomicRate the fraction of messages reaching all.
	DeliveryRate float64
	AtomicRate   float64
	// Top5LinkShare is the fraction of payload traffic on the 5% most
	// used connections — the emergent-structure measure.
	Top5LinkShare float64
	// Duplicates counts redundant payload receptions; ControlFrames
	// counts IHAVE/IWANT traffic.
	Duplicates    int
	ControlFrames int
}

// String renders the stats in one line.
func (s Stats) String() string {
	return fmt.Sprintf(
		"msgs=%d deliveries=%d latency=%v payload/msg=%.2f deliveryRate=%.1f%% top5=%.1f%%",
		s.MessagesSent, s.Deliveries, s.MeanLatency.Round(time.Millisecond),
		s.PayloadPerMsg, 100*s.DeliveryRate, 100*s.Top5LinkShare,
	)
}
