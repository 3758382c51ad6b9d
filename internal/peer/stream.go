package peer

import (
	"math/rand"
	randv2 "math/rand/v2"

	"emcast/internal/ids"
)

// Purpose names one of a node's random streams. Each purpose draws from a
// generator of its own, so extra draws for one purpose never shift the
// draws of another: a strategy that flips one more coin leaves the node's
// shuffles where they were.
type Purpose uint64

// The purposes a node draws for.
const (
	// StreamJitter spreads the node's periodic timers; it is Env.RNG.
	StreamJitter Purpose = iota + 1
	// StreamMembership picks shuffle partners, samples and eviction
	// victims in the partial view.
	StreamMembership
	// StreamStrategy flips the Flat and Noisy transmission coins.
	StreamStrategy
)

// Stream returns node self's random stream for purpose, derived from seed
// (the node's Config.Seed) through ids.Mix64: the same triple always
// yields the same stream, and distinct triples yield unrelated ones. The
// generator is a 16-byte math/rand/v2 PCG behind the math/rand Source64
// interface, so the seams that take a *rand.Rand keep their type.
func Stream(seed int64, self ID, purpose Purpose) *rand.Rand {
	h := ids.Mix64(ids.Mix64(ids.Mix64(uint64(seed))^uint64(self)) ^ uint64(purpose))
	src := &pcg{}
	src.PCG.Seed(h, ids.Mix64(h))
	return rand.New(src)
}

// pcg adapts a math/rand/v2 PCG to math/rand's Source64; Uint64 is the
// embedded generator's.
type pcg struct{ randv2.PCG }

// Int63 implements rand.Source.
func (p *pcg) Int63() int64 { return int64(p.Uint64() >> 1) }

// Seed implements rand.Source: it reseeds the generator from seed alone.
func (p *pcg) Seed(seed int64) { p.PCG.Seed(uint64(seed), ids.Mix64(uint64(seed))) }
