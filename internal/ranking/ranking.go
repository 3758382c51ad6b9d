// Package ranking implements a decentralized, gossip-based approximation
// of the node ranking the Ranked strategy needs. The paper's evaluation
// designates "best" nodes from global model knowledge, but notes (§4.1)
// that "a ranking can also be computed using local Performance Monitors
// and a gossip based sorting protocol", and shows (§6.5) that the protocol
// tolerates approximate rankings. This package is that deployable path:
//
//   - Each node periodically derives its own centrality score from its
//     local performance monitor — the mean measured metric to its current
//     partial view, an unbiased sample of the whole overlay.
//   - Scores spread epidemically: nodes periodically push a sample of
//     their score table to a random neighbour, which merges it (newer
//     observations win) and answers with its own sample.
//   - Every node then answers IsBest(p) locally: p is best if its known
//     score sits in the lowest Fraction of all known scores.
//
// Rankings at different nodes agree only approximately and lag reality —
// exactly the imperfection the paper's noise experiments show the protocol
// absorbs.
package ranking

import (
	"math"
	"sort"

	"emcast/internal/msg"
	"emcast/internal/peer"
	"emcast/internal/stats"
)

// Config tunes the ranking table.
type Config struct {
	// Fraction of nodes considered best (paper §6.4 uses 0.2).
	Fraction float64
	// SampleSize is how many scores are pushed per gossip exchange.
	SampleSize int
	// Capacity bounds the score table. Zero means 4096.
	Capacity int
}

func (c *Config) fill() {
	if c.Fraction <= 0 {
		c.Fraction = 0.2
	}
	if c.SampleSize <= 0 {
		c.SampleSize = 16
	}
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
}

// entry is one known score with a logical timestamp for freshness.
type entry struct {
	value float64
	epoch uint64
}

// Table is a node's view of the global ranking. It is not safe for
// concurrent use; the owning node's host serialises access.
type Table struct {
	cfg    Config
	self   peer.ID
	scores map[peer.ID]entry
	epoch  uint64
	// threshold caches Threshold, which IsBest reads on every send;
	// SetOwnScore and Merge mark it stale and the next read recomputes it.
	threshold float64
	stale     bool
}

// NewTable creates an empty ranking table for node self.
func NewTable(cfg Config, self peer.ID) *Table {
	cfg.fill()
	return &Table{
		cfg:       cfg,
		self:      self,
		scores:    make(map[peer.ID]entry),
		threshold: math.Inf(-1),
	}
}

// SetOwnScore records this node's current centrality score (lower is
// better) and advances the logical epoch so the new value wins merges.
func (t *Table) SetOwnScore(score float64) {
	if math.IsNaN(score) || math.IsInf(score, 0) {
		return
	}
	t.epoch++
	t.scores[t.self] = entry{value: score, epoch: t.epoch}
	t.prune()
	t.stale = true
}

// Merge incorporates received scores: an unknown node is adopted, a known
// node's score is replaced when the received value differs — the exchange
// carries no cross-node clock, so latest-write-wins is approximated by
// always accepting remote values for nodes other than self.
func (t *Table) Merge(scores []msg.Score) {
	for _, s := range scores {
		if s.Node == t.self || s.Node == peer.None ||
			math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			continue
		}
		t.epoch++
		t.scores[s.Node] = entry{value: s.Value, epoch: t.epoch}
	}
	t.prune()
	t.stale = true
}

// prune evicts the stalest entries beyond capacity (never self).
func (t *Table) prune() {
	if len(t.scores) <= t.cfg.Capacity {
		return
	}
	type aged struct {
		node  peer.ID
		epoch uint64
	}
	all := make([]aged, 0, len(t.scores))
	for n, e := range t.scores {
		if n != t.self {
			all = append(all, aged{node: n, epoch: e.epoch})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].epoch < all[j].epoch })
	for _, a := range all {
		if len(t.scores) <= t.cfg.Capacity {
			break
		}
		delete(t.scores, a.node)
	}
}

// Sample returns up to SampleSize scores to push in a gossip exchange,
// always including this node's own score when known. The remainder is the
// freshest entries, so recent observations propagate fastest.
func (t *Table) Sample() []msg.Score {
	out := make([]msg.Score, 0, t.cfg.SampleSize)
	if own, ok := t.scores[t.self]; ok {
		out = append(out, msg.Score{Node: t.self, Value: own.value})
	}
	type aged struct {
		node peer.ID
		entry
	}
	rest := make([]aged, 0, len(t.scores))
	for n, e := range t.scores {
		if n != t.self {
			rest = append(rest, aged{node: n, entry: e})
		}
	}
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].epoch != rest[j].epoch {
			return rest[i].epoch > rest[j].epoch
		}
		return rest[i].node < rest[j].node
	})
	for _, a := range rest {
		if len(out) >= t.cfg.SampleSize {
			break
		}
		out = append(out, msg.Score{Node: a.node, Value: a.value})
	}
	return out
}

// IsBest reports whether p's known score lies within the best Fraction of
// all known scores. Unknown nodes are never best (conservative: they fall
// back to lazy push, which is always safe).
func (t *Table) IsBest(p peer.ID) bool {
	e, ok := t.scores[p]
	if !ok || len(t.scores) == 0 {
		return false
	}
	return e.value <= t.Threshold()
}

// Threshold returns the score at the best-Fraction quantile of the known
// scores (−Inf when the table is empty, so nothing qualifies until scores
// arrive). It is selected by stats.Kth once per change of the table and
// cached between changes.
func (t *Table) Threshold() float64 {
	if !t.stale {
		return t.threshold
	}
	t.stale = false
	if len(t.scores) == 0 {
		t.threshold = math.Inf(-1)
		return t.threshold
	}
	k := int(math.Ceil(t.cfg.Fraction*float64(len(t.scores)))) - 1
	t.threshold = stats.Kth(func(yield func(float64) bool) {
		for _, e := range t.scores {
			if !yield(e.value) {
				return
			}
		}
	}, k)
	return t.threshold
}

// Known returns the number of nodes with known scores.
func (t *Table) Known() int { return len(t.scores) }
