// Package membership implements the peer sampling service the gossip layer
// depends on (paper §3.1, reference [10]): each node maintains a small
// random partial view of the overlay (NeEM-style, overlay fanout 15 in the
// paper's configuration) refreshed by periodic shuffles with random
// neighbours, and answers PeerSample(f) queries with uniform random samples
// drawn from that view.
//
// The periodic shuffle keeps the overlay a random graph: a node picks a
// random neighbour, sends it a random sample of its view (including itself),
// and the two nodes merge each other's samples, evicting random entries when
// full. Randomness of the overlay is the key to gossip's resilience, which
// the paper's approach deliberately preserves.
package membership

import (
	"math/bits"
	"math/rand"
	"slices"

	"emcast/internal/obs"
	"emcast/internal/peer"
)

// Config tunes the view maintenance protocol.
type Config struct {
	// ViewSize is the maximum partial view size (paper: overlay fanout
	// 15).
	ViewSize int
	// ShuffleSize is how many entries are exchanged per shuffle.
	ShuffleSize int
}

// DefaultConfig mirrors the paper's overlay configuration.
func DefaultConfig() Config {
	return Config{ViewSize: 15, ShuffleSize: 7}
}

// View is a node's partial view of the overlay: one slice of at most
// ViewSize peers, searched by linear scan. It is not safe for concurrent
// use: it is part of the owning node's step machine, whose host serialises
// every input (see core.Node).
type View struct {
	cfg   Config
	self  peer.ID
	rng   *rand.Rand
	peers []peer.ID
	// pool is MergeExchange's reused eviction-preference scratch.
	pool []peer.ID
}

// NewView creates an empty view for node self.
func NewView(cfg Config, self peer.ID, rng *rand.Rand) *View {
	if cfg.ViewSize <= 0 {
		cfg.ViewSize = DefaultConfig().ViewSize
	}
	if cfg.ShuffleSize <= 0 {
		cfg.ShuffleSize = cfg.ViewSize/2 + 1
	}
	return &View{cfg: cfg, self: self, rng: rng}
}

// Seed initialises the view with the given peers (used at join, or by the
// simulator to warm the overlay as the paper does before measuring).
func (v *View) Seed(ps []peer.ID) {
	for _, p := range ps {
		v.insert(p, nil)
	}
}

// Add inserts p, evicting a random entry if the view is full. Self and
// duplicates are ignored. It reports whether the view changed.
func (v *View) Add(p peer.ID) bool {
	_, ok := v.insert(p, nil)
	return ok
}

// Remove drops p from the view if present.
func (v *View) Remove(p peer.ID) {
	if i := slices.Index(v.peers, p); i >= 0 {
		v.removeAt(i)
	}
}

// insert is the one insertion path. Self, None and peers already held are
// refused. A full view first evicts one entry: pool is consumed in order
// up to its first entry still in the view, and with none left a random
// slot goes. It returns what is left of pool and whether p went in.
func (v *View) insert(p peer.ID, pool []peer.ID) ([]peer.ID, bool) {
	if p == v.self || p == peer.None || v.Contains(p) {
		return pool, false
	}
	if len(v.peers) >= v.cfg.ViewSize {
		i := -1
		for i < 0 && len(pool) > 0 {
			i = slices.Index(v.peers, pool[0])
			pool = pool[1:]
		}
		if i < 0 {
			i = v.intn(len(v.peers))
		}
		v.removeAt(i)
	}
	v.peers = append(v.peers, p)
	return pool, true
}

// removeAt drops slot i by moving the last entry into it.
func (v *View) removeAt(i int) {
	last := len(v.peers) - 1
	v.peers[i] = v.peers[last]
	v.peers = v.peers[:last]
}

// Contains reports whether p is in the view.
func (v *View) Contains(p peer.ID) bool { return slices.Contains(v.peers, p) }

// Len returns the current view size.
func (v *View) Len() int { return len(v.peers) }

// Peers returns a copy of the view.
func (v *View) Peers() []peer.ID {
	return append([]peer.ID(nil), v.peers...)
}

// Sample returns min(f, Len) distinct peers drawn uniformly at random. This
// is the paper's PeerSample(f) primitive.
func (v *View) Sample(f int) []peer.ID { return v.SampleInto(nil, f) }

// SampleInto is Sample into a caller's buffer: it returns the sample in
// dst's storage (from dst[:0]), allocating only when dst is too small.
// Callers that sample on every message reuse one buffer. The draw is a
// partial Fisher–Yates over the view's own slots: f draws, each swapping
// its pick into the next slot of the sampled prefix. So sampling reorders
// the view, whose slot order carries no meaning, and needs no scratch.
func (v *View) SampleInto(dst []peer.ID, f int) []peer.ID {
	dst = dst[:0]
	n := len(v.peers)
	f = min(f, n)
	if f <= 0 {
		return dst
	}
	if cap(dst) < f {
		dst = make([]peer.ID, 0, f)
	}
	for i := 0; i < f; i++ {
		j := i + v.intn(n-i)
		v.peers[i], v.peers[j] = v.peers[j], v.peers[i]
		dst = append(dst, v.peers[i])
	}
	return dst
}

// ShufflePartner picks a random neighbour to shuffle with, or None if the
// view is empty.
func (v *View) ShufflePartner() peer.ID {
	if len(v.peers) == 0 {
		return peer.None
	}
	return v.peers[v.intn(len(v.peers))]
}

// intn draws uniformly from [0, n), n > 0, from one 64-bit output of the
// view's stream: a mask when n is a power of two, otherwise Lemire's
// multiply-shift with its rejection step, so the draw is exact. It is the
// bounded draw of math/rand/v2's IntN on 64-bit platforms, and it costs a
// multiply where math/rand's Intn costs a division.
func (v *View) intn(n int) int {
	x := v.rng.Uint64()
	if n&(n-1) == 0 {
		return int(x & uint64(n-1))
	}
	hi, lo := bits.Mul64(x, uint64(n))
	if lo < uint64(n) {
		thresh := -uint64(n) % uint64(n)
		for lo < thresh {
			hi, lo = bits.Mul64(v.rng.Uint64(), uint64(n))
		}
	}
	return int(hi)
}

// ShuffleSample builds the sample sent in a shuffle: a random subset of the
// view plus the sender itself, so node addresses propagate through the
// overlay. Like SampleInto it fills dst's storage.
func (v *View) ShuffleSample(dst []peer.ID) []peer.ID {
	if cap(dst) < v.cfg.ShuffleSize {
		dst = make([]peer.ID, 0, v.cfg.ShuffleSize)
	}
	return append(v.SampleInto(dst, v.cfg.ShuffleSize-1), v.self)
}

// peerIDBytes is the size of one peer.ID entry (uint32).
const peerIDBytes = 4

// Footprint implements obs.Footprinter: the capacities of the peers slice
// and the eviction-pool scratch. The estimate is pure arithmetic over
// capacities — the walk never mutates the view.
func (v *View) Footprint() obs.Footprint {
	return obs.Footprint{
		Subsystem: "membership",
		Bytes:     int64(cap(v.peers)+cap(v.pool)) * peerIDBytes,
		Items:     int64(len(v.peers)),
	}
}

// MergeExchange incorporates a received shuffle sample using Cyclon-style
// exchange semantics: when the view is full, entries we sent to the peer
// (which the peer now holds) are evicted first, so view slots are swapped
// between the two nodes rather than destroyed. This keeps every node's
// in-degree close to its out-degree, which is what keeps the overlay
// connected under continuous shuffling. With sent nil it evicts at random,
// as Add does.
func (v *View) MergeExchange(received, sent []peer.ID) {
	// Copy so eviction can consume entries in deterministic order.
	if cap(v.pool) < len(sent) {
		v.pool = make([]peer.ID, 0, max(len(sent), v.cfg.ShuffleSize))
	}
	pool := v.pool[:0]
	for _, p := range sent {
		if p != v.self {
			pool = append(pool, p)
		}
	}
	v.pool = pool
	for _, p := range received {
		pool, _ = v.insert(p, pool)
	}
}
