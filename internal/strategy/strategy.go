// Package strategy implements the Transmission Strategy component of the
// Payload Scheduler (paper §3.2, §4.1): the criteria used to defer payload
// transmission at the sender and to schedule retransmission requests at the
// receiver.
//
// The strategies are exactly the paper's:
//
//   - Flat: eager with probability p (p=1 pure eager push, p=0 pure lazy).
//   - TTL: eager while the gossip round is below a threshold u.
//   - Radius: eager towards peers whose monitor metric is below a radius ρ;
//     retransmission requests delayed by T0 and directed at the nearest
//     known source, yielding an emergent mesh.
//   - Ranked: eager whenever either endpoint is a "best" node, yielding an
//     emergent hubs-and-spokes structure.
//   - Hybrid: the paper's §6.4 combination (best nodes always eager, radius
//     2ρ during the first u rounds, ρ afterwards).
//   - Noisy: the §4.3 degradation wrapper, v' = c + (v-c)(1-o), which blurs
//     any strategy toward Flat while preserving its overall eager rate.
package strategy

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"emcast/internal/ids"
	"emcast/internal/monitor"
	"emcast/internal/peer"
)

// Strategy decides payload scheduling. Implementations are per-node and are
// not safe for concurrent use; the owning node's host serialises access.
type Strategy interface {
	// Name identifies the strategy in traces and experiment output.
	Name() string
	// Eager reports whether the payload for message id, being relayed at
	// the given gossip round, should be pushed eagerly to peer to. This
	// is the paper's Eager?(i, d, r, p) queried at the sending node.
	Eager(id ids.ID, round int, to peer.ID) bool
	// FirstDelay returns how long to wait before issuing the first
	// retransmission request after an IHAVE from the given source. Flat,
	// TTL and Ranked request immediately; Radius waits T0, an estimate
	// of the latency to nodes within the radius (paper §4.1).
	FirstDelay(from peer.ID) time.Duration
	// PickSource selects which known source to request a payload from.
	// Radius picks the nearest source according to the monitor; other
	// strategies take the first (oldest) known source.
	PickSource(sources []peer.ID) peer.ID
}

func firstSource(sources []peer.ID) peer.ID {
	if len(sources) == 0 {
		return peer.None
	}
	return sources[0]
}

// Flat is the baseline strategy: eager with a fixed probability P.
type Flat struct {
	P   float64
	RNG *rand.Rand
}

// Name implements Strategy.
func (s *Flat) Name() string { return fmt.Sprintf("flat(p=%.2f)", s.P) }

// Eager implements Strategy.
func (s *Flat) Eager(ids.ID, int, peer.ID) bool {
	if s.P >= 1 {
		return true
	}
	if s.P <= 0 {
		return false
	}
	return s.RNG.Float64() < s.P
}

// FirstDelay implements Strategy: Flat requests immediately on IHAVE.
func (s *Flat) FirstDelay(peer.ID) time.Duration { return 0 }

// PickSource implements Strategy.
func (s *Flat) PickSource(sources []peer.ID) peer.ID { return firstSource(sources) }

// TTL is eager during the first U gossip rounds only: "during the first
// rounds, the likelihood of a node being targeted by more than one copy of
// the payload is small and thus there is no point in using lazy push".
type TTL struct {
	U int
}

// Name implements Strategy.
func (s *TTL) Name() string { return fmt.Sprintf("ttl(u=%d)", s.U) }

// Eager implements Strategy.
func (s *TTL) Eager(_ ids.ID, round int, _ peer.ID) bool { return round < s.U }

// FirstDelay implements Strategy.
func (s *TTL) FirstDelay(peer.ID) time.Duration { return 0 }

// PickSource implements Strategy.
func (s *TTL) PickSource(sources []peer.ID) peer.ID { return firstSource(sources) }

// Radius is eager towards peers closer than Rho in the monitor metric. Its
// request scheduling waits T0 (the expected latency within the radius)
// before the first request and prefers the nearest known source, so most
// payload travels over short links, producing an emergent mesh.
type Radius struct {
	Rho     float64
	Monitor monitor.Monitor
	T0      time.Duration
}

// Name implements Strategy.
func (s *Radius) Name() string { return fmt.Sprintf("radius(rho=%.1f)", s.Rho) }

// Eager implements Strategy.
func (s *Radius) Eager(_ ids.ID, _ int, to peer.ID) bool {
	return s.Monitor.Metric(to) < s.Rho
}

// FirstDelay implements Strategy.
func (s *Radius) FirstDelay(peer.ID) time.Duration { return s.T0 }

// PickSource implements Strategy: nearest known source first.
func (s *Radius) PickSource(sources []peer.ID) peer.ID {
	return nearest(s.Monitor, sources)
}

func nearest(m monitor.Monitor, sources []peer.ID) peer.ID {
	best := peer.None
	bestMetric := math.Inf(1)
	for _, src := range sources {
		if metric := m.Metric(src); metric < bestMetric || best == peer.None {
			best, bestMetric = src, metric
		}
	}
	return best
}

// Ranked is eager whenever the sending node or the target is a designated
// "best" node, concentrating payload on a hubs-and-spokes structure. Best
// nodes may be configured explicitly (e.g. by an ISP) or derived from a
// ranking; approximate rankings suffice (paper §4.1).
type Ranked struct {
	Self   peer.ID
	IsBest func(peer.ID) bool
}

// Name implements Strategy.
func (s *Ranked) Name() string { return "ranked" }

// Eager implements Strategy: true iff either endpoint is a best node.
func (s *Ranked) Eager(_ ids.ID, _ int, to peer.ID) bool {
	return s.IsBest(s.Self) || s.IsBest(to)
}

// FirstDelay implements Strategy.
func (s *Ranked) FirstDelay(peer.ID) time.Duration { return 0 }

// PickSource implements Strategy.
func (s *Ranked) PickSource(sources []peer.ID) peer.ID { return firstSource(sources) }

// Hybrid is the paper's §6.4 combined heuristic: eager iff either endpoint
// is a best node, or the target is within radius 2ρ during the first U
// rounds, or within ρ afterwards — the radius shrinks as the message ages.
// Request scheduling follows Radius.
type Hybrid struct {
	Self    peer.ID
	IsBest  func(peer.ID) bool
	Rho     float64
	U       int
	Monitor monitor.Monitor
	T0      time.Duration
}

// Name implements Strategy.
func (s *Hybrid) Name() string {
	return fmt.Sprintf("hybrid(rho=%.1f,u=%d)", s.Rho, s.U)
}

// Eager implements Strategy.
func (s *Hybrid) Eager(_ ids.ID, round int, to peer.ID) bool {
	if s.IsBest(s.Self) || s.IsBest(to) {
		return true
	}
	metric := s.Monitor.Metric(to)
	if round < s.U {
		return metric < 2*s.Rho
	}
	return metric < s.Rho
}

// FirstDelay implements Strategy.
func (s *Hybrid) FirstDelay(peer.ID) time.Duration { return s.T0 }

// PickSource implements Strategy.
func (s *Hybrid) PickSource(sources []peer.ID) peer.ID {
	return nearest(s.Monitor, sources)
}

// Noisy degrades the accuracy of a base strategy per the paper's §4.3: the
// base decision v ∈ {0, 1} is replaced by a Bernoulli draw with probability
// v' = c + (v-c)(1-o), where o is the noise ratio and c is chosen so the
// overall eager rate is unchanged (here a running estimate of the base
// strategy's decision rate). At o=0 decisions are unchanged; at o=1 the
// strategy degenerates to Flat with p=c, erasing all structure while
// transmitting the same amount of data.
type Noisy struct {
	Base Strategy
	O    float64
	RNG  *rand.Rand
	// C is the system-wide eager rate of the base strategy. When
	// negative, a per-node running estimate is used instead; the global
	// value reproduces the paper exactly (at o=1 every node, hubs
	// included, degenerates to the same Flat(c)).
	C float64

	decisions int
	eagers    int
}

// Name implements Strategy.
func (s *Noisy) Name() string {
	return fmt.Sprintf("noisy(o=%.2f,%s)", s.O, s.Base.Name())
}

// Eager implements Strategy.
func (s *Noisy) Eager(id ids.ID, round int, to peer.ID) bool {
	base := s.Base.Eager(id, round, to)
	s.decisions++
	if base {
		s.eagers++
	}
	if s.O <= 0 {
		return base
	}
	c := s.rate()
	v := 0.0
	if base {
		v = 1.0
	}
	vPrime := c + (v-c)*(1-s.O)
	return s.RNG.Float64() < vPrime
}

// rate returns the paper's constant c: the configured global eager rate
// when set, otherwise a per-node running estimate.
func (s *Noisy) rate() float64 {
	if s.C >= 0 && s.C <= 1 {
		return s.C
	}
	if s.decisions == 0 {
		return 0.5
	}
	return float64(s.eagers) / float64(s.decisions)
}

// FirstDelay implements Strategy, delegating to the base strategy: noise
// affects only the Eager? decision (paper §4.3).
func (s *Noisy) FirstDelay(from peer.ID) time.Duration { return s.Base.FirstDelay(from) }

// PickSource implements Strategy, delegating to the base strategy.
func (s *Noisy) PickSource(sources []peer.ID) peer.ID { return s.Base.PickSource(sources) }

// Compile-time interface checks.
var (
	_ Strategy = (*Flat)(nil)
	_ Strategy = (*TTL)(nil)
	_ Strategy = (*Radius)(nil)
	_ Strategy = (*Ranked)(nil)
	_ Strategy = (*Hybrid)(nil)
	_ Strategy = (*Noisy)(nil)
)
