// Package faults is the deterministic fault-injection plane shared by the
// virtual-time simulator and the live TCP harness. It turns the paper's
// robustness claim — epidemic dissemination survives faults the structure
// cannot predict — into an injectable, reproducible workload: per-directed-
// link rules (drop / extra delay / duplicate / reorder) and process-level
// stalls, all driven by splitmix64 draws from one seed.
//
// The same Injector vocabulary backs both deployment planes, with one
// honest asymmetry:
//
//   - Simulated runs are byte-reproducible. The injector draws from its own
//     seeded stream — never from the emulator's RNG — and the emulator
//     consults it at frame-send time on the single simulation goroutine, so
//     the verdict sequence is a pure function of (seed, event order). An
//     attached-but-inert injector (no rules, no stalls) changes nothing:
//     verdicts are only drawn once a rule matches, which the byte-identity
//     equivalence tests pin.
//   - Live runs are best-effort. Transport goroutines race, so the draw
//     counter interleaves nondeterministically; the *rates* hold (each
//     frame draws independently) but the per-frame verdict sequence does
//     not reproduce. That is the right contract for chaos soaks, which
//     assert recovery invariants, not event orders.
//
// Process-level crash injection needs no machinery here: the simulator
// silences nodes and the live harness hard-kills peers; the scenario
// engine's fault-crash event routes to those. Stalls are split: the
// simulator registers them on the Injector (virtual deadlines applied to
// in-flight frames), the live harness freezes the victim's transport
// loops directly, so senders feel real TCP backpressure.
package faults

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"emcast/internal/ids"
)

// Verdict is the plane's decision for one frame.
type Verdict struct {
	// Drop loses the frame.
	Drop bool
	// Delay is extra in-network latency for this frame (reordering shows
	// up as a large Delay letting later frames overtake).
	Delay time.Duration
	// Duplicate delivers a second copy of the frame. The dedup layers
	// above the transport absorb it; the point is to exercise them.
	Duplicate bool
}

// DefaultReorderBy is the deferral applied to a reordered frame when the
// rule does not set ReorderBy: long enough that frames sent well after it
// overtake it on any modeled link.
const DefaultReorderBy = 50 * time.Millisecond

// LinkRule is one fault rule over a set of directed links. Zero-valued
// probability fields inject nothing; From/To scope the rule (nil = every
// node), and a frame from a to b matches when a ∈ From and b ∈ To.
type LinkRule struct {
	// From and To scope the rule to directed links; nil means all nodes.
	From []int `json:"from,omitempty"`
	To   []int `json:"to,omitempty"`

	// Drop is the probability a matching frame is lost.
	Drop float64 `json:"drop,omitempty"`
	// Delay adds a fixed extra latency to every matching frame, and
	// DelayJitter adds a uniform draw from [0, DelayJitter) on top.
	Delay       time.Duration `json:"delay,omitempty"`
	DelayJitter time.Duration `json:"delay_jitter,omitempty"`
	// Duplicate is the probability a matching frame is delivered twice.
	Duplicate float64 `json:"duplicate,omitempty"`
	// Reorder is the probability a matching frame is deferred by
	// ReorderBy (default DefaultReorderBy), so frames sent after it
	// arrive first.
	Reorder   float64       `json:"reorder,omitempty"`
	ReorderBy time.Duration `json:"reorder_by,omitempty"`
}

// Validate rejects contradictory rules with a descriptive error.
func (r *LinkRule) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", r.Drop}, {"duplicate", r.Duplicate}, {"reorder", r.Reorder}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s probability %v outside [0, 1]", p.name, p.v)
		}
	}
	if r.Delay < 0 || r.DelayJitter < 0 || r.ReorderBy < 0 {
		return fmt.Errorf("faults: negative delay in rule")
	}
	if r.Drop == 0 && r.Duplicate == 0 && r.Reorder == 0 && r.Delay == 0 && r.DelayJitter == 0 {
		return fmt.Errorf("faults: rule injects nothing (set drop, delay, delay_jitter, duplicate or reorder)")
	}
	return nil
}

// active reports whether the rule can affect any frame.
func (r *LinkRule) activeRule() bool {
	return r.Drop > 0 || r.Duplicate > 0 || r.Reorder > 0 || r.Delay > 0 || r.DelayJitter > 0
}

// compiledRule is a LinkRule with its scoping sets materialised for O(1)
// matching.
type compiledRule struct {
	LinkRule
	from map[int]struct{} // nil = all
	to   map[int]struct{} // nil = all
}

func compile(r LinkRule) compiledRule {
	c := compiledRule{LinkRule: r}
	if len(r.From) > 0 {
		c.from = make(map[int]struct{}, len(r.From))
		for _, n := range r.From {
			c.from[n] = struct{}{}
		}
	}
	if len(r.To) > 0 {
		c.to = make(map[int]struct{}, len(r.To))
		for _, n := range r.To {
			c.to[n] = struct{}{}
		}
	}
	return c
}

func (c *compiledRule) matches(from, to int) bool {
	if c.from != nil {
		if _, ok := c.from[from]; !ok {
			return false
		}
	}
	if c.to != nil {
		if _, ok := c.to[to]; !ok {
			return false
		}
	}
	return true
}

// Stats are the injector's cumulative activity counters. Observability
// only — reading them never disturbs the draw stream.
type Stats struct {
	Frames     uint64 // frames that matched at least one rule
	Dropped    uint64
	Delayed    uint64 // frames given non-zero extra delay (reorders included)
	Duplicated uint64
	Reordered  uint64
	Stalled    uint64 // frames deferred past a stall deadline
}

// Injector evaluates fault rules. Safe for concurrent use; in the
// single-goroutine simulator the verdict stream is fully deterministic.
type Injector struct {
	seed uint64
	ctr  atomic.Uint64

	mu    sync.RWMutex
	rules []compiledRule
	stall map[int]time.Duration // node -> virtual deadline (sim plane only)

	// nactive mirrors len(rules)+len(stall) so the no-fault fast path is
	// one atomic load, not a lock.
	nactive atomic.Int32

	frames     atomic.Uint64
	dropped    atomic.Uint64
	delayed    atomic.Uint64
	duplicated atomic.Uint64
	reordered  atomic.Uint64
	stalled    atomic.Uint64
}

// New returns an injector drawing from seed. The same seed replays the
// same verdict stream for the same call sequence.
func New(seed int64) *Injector {
	return &Injector{seed: uint64(seed) ^ 0xfa01f5eed5eedfa0}
}

// Install appends a rule (compiling its scoping sets). Invalid rules are
// rejected.
func (inj *Injector) Install(r LinkRule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	inj.mu.Lock()
	inj.rules = append(inj.rules, compile(r))
	inj.refreshActiveLocked()
	inj.mu.Unlock()
	return nil
}

// Clear removes every rule. Stalls already registered keep their
// deadlines (a frozen process does not thaw because the network healed).
func (inj *Injector) Clear() {
	inj.mu.Lock()
	inj.rules = nil
	inj.refreshActiveLocked()
	inj.mu.Unlock()
}

// Rules returns a copy of the installed rules (diagnostics, tests).
func (inj *Injector) Rules() []LinkRule {
	inj.mu.RLock()
	defer inj.mu.RUnlock()
	out := make([]LinkRule, len(inj.rules))
	for i := range inj.rules {
		out[i] = inj.rules[i].LinkRule
	}
	return out
}

// Stall freezes a node until the given (virtual) deadline: frames to or
// from it are deferred to the deadline. Used by the simulator plane; the
// live plane stalls the victim's transport instead.
func (inj *Injector) Stall(node int, until time.Duration) {
	inj.mu.Lock()
	if inj.stall == nil {
		inj.stall = make(map[int]time.Duration)
	}
	if inj.stall[node] < until {
		inj.stall[node] = until
	}
	inj.refreshActiveLocked()
	inj.mu.Unlock()
}

// StallDelay returns how much extra delay a frame between from and to
// needs so it cannot arrive before either endpoint's stall deadline, and
// counts the deferral. now is the caller's current (virtual) time.
func (inj *Injector) StallDelay(now time.Duration, from, to int) time.Duration {
	if inj.nactive.Load() == 0 {
		return 0
	}
	inj.mu.RLock()
	until := inj.stall[from]
	if u := inj.stall[to]; u > until {
		until = u
	}
	inj.mu.RUnlock()
	if until <= now {
		return 0
	}
	inj.stalled.Add(1)
	return until - now
}

// refreshActiveLocked recomputes the fast-path gate. Callers hold mu.
// Expired stalls are not pruned here (the map is tiny and pruning would
// need a clock); an injector is "active" while any stall was ever
// registered, which only costs the locked path, never a verdict.
func (inj *Injector) refreshActiveLocked() {
	inj.nactive.Store(int32(len(inj.rules) + len(inj.stall)))
}

// Active reports whether any rule or stall is registered.
func (inj *Injector) Active() bool { return inj != nil && inj.nactive.Load() > 0 }

// Frame evaluates the link rules for one frame from → to and returns the
// combined verdict. Multiple matching rules compose: any drop drops,
// delays add, any duplicate duplicates. Draws are consumed only for
// matching rules with non-zero probabilities, so an inert injector leaves
// the stream (and the simulation) untouched.
func (inj *Injector) Frame(from, to int) Verdict {
	if inj == nil || inj.nactive.Load() == 0 {
		return Verdict{}
	}
	inj.mu.RLock()
	defer inj.mu.RUnlock()
	var v Verdict
	matched := false
	var stream drawStream
	for i := range inj.rules {
		r := &inj.rules[i]
		if !r.activeRule() || !r.matches(from, to) {
			continue
		}
		if !matched {
			matched = true
			stream = inj.newStream()
		}
		if r.Drop > 0 && stream.float() < r.Drop {
			v.Drop = true
		}
		v.Delay += r.Delay
		if r.DelayJitter > 0 {
			v.Delay += time.Duration(stream.float() * float64(r.DelayJitter))
		}
		if r.Duplicate > 0 && stream.float() < r.Duplicate {
			v.Duplicate = true
		}
		if r.Reorder > 0 && stream.float() < r.Reorder {
			by := r.ReorderBy
			if by <= 0 {
				by = DefaultReorderBy
			}
			v.Delay += by
			inj.reordered.Add(1)
		}
	}
	if matched {
		inj.frames.Add(1)
		if v.Drop {
			inj.dropped.Add(1)
			// A dropped frame is dropped; the delay/duplicate flags are
			// moot and reporting them would double-count activity.
			v.Delay = 0
			v.Duplicate = false
		} else {
			if v.Delay > 0 {
				inj.delayed.Add(1)
			}
			if v.Duplicate {
				inj.duplicated.Add(1)
			}
		}
	}
	return v
}

// Stats returns the cumulative activity counters.
func (inj *Injector) Stats() Stats {
	if inj == nil {
		return Stats{}
	}
	return Stats{
		Frames:     inj.frames.Load(),
		Dropped:    inj.dropped.Load(),
		Delayed:    inj.delayed.Load(),
		Duplicated: inj.duplicated.Load(),
		Reordered:  inj.reordered.Load(),
		Stalled:    inj.stalled.Load(),
	}
}

// drawStream is one frame's private random stream: seeded from the
// injector's draw counter, advanced by splitmix64 per draw. One counter
// bump per frame keeps the simulator's verdict sequence a pure function
// of frame order, however many probabilities each rule checks.
type drawStream struct{ x uint64 }

func (inj *Injector) newStream() drawStream {
	return drawStream{x: ids.Mix64(inj.seed + inj.ctr.Add(1)*0x9e3779b97f4a7c15)}
}

// float returns the next draw in [0, 1).
func (s *drawStream) float() float64 {
	s.x = ids.Mix64(s.x)
	return float64(s.x>>11) / (1 << 53)
}
