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
	// perm is Sample's reused permutation scratch: the hot gossip path
	// samples fanout peers per forwarded message, and allocating a fresh
	// rand.Perm slice each time dominated the allocation profile.
	perm []int
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
			i = v.rng.Intn(len(v.peers))
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

// SampleInto is Sample into a caller's buffer: it makes the same draws and
// returns the sample in dst's storage (from dst[:0]), allocating only when
// dst is too small. Callers that sample on every message reuse one buffer.
func (v *View) SampleInto(dst []peer.ID, f int) []peer.ID {
	dst = dst[:0]
	if f > len(v.peers) {
		f = len(v.peers)
	}
	if f <= 0 {
		return dst
	}
	// Inline rand.Perm into a reused scratch slice. The loop below is
	// exactly math/rand's Perm — same Intn draws in the same order — so
	// the rng stream and the sampled peers are bit-identical to the
	// allocating version; only the garbage is gone.
	n := len(v.peers)
	if cap(v.perm) < n {
		v.perm = make([]int, n)
	}
	perm := v.perm[:n]
	for i := 0; i < n; i++ {
		j := v.rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	if cap(dst) < f {
		dst = make([]peer.ID, 0, f)
	}
	for _, i := range perm[:f] {
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
	return v.peers[v.rng.Intn(len(v.peers))]
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
// and the two scratch buffers. The estimate is pure arithmetic over
// capacities — the walk never mutates the view.
func (v *View) Footprint() obs.Footprint {
	return obs.Footprint{
		Subsystem: "membership",
		Bytes: int64(cap(v.peers))*peerIDBytes +
			int64(cap(v.perm))*8 + int64(cap(v.pool))*peerIDBytes,
		Items: int64(len(v.peers)),
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
