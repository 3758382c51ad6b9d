// Package peer defines the primitives shared by every protocol layer: node
// identifiers, the unreliable point-to-point transport abstraction (the
// paper's L-Send/L-Receive substrate), virtual clocks and timers.
//
// Protocol layers (membership, gossip, lazy point-to-point) are written
// against these interfaces only, so the exact same code runs over the
// discrete-event network emulator (internal/emunet) and over a real TCP
// transport (internal/neem).
//
// Timers come in two shapes. AfterFunc runs a callback. Arm, the Arming
// capability, arms a timer as data: the host keeps a TimerSink and a
// 64-bit key and hands the key back to the sink when the timer fires, so
// arming allocates nothing on a host that stores the pair in place (the
// emulator keeps it in its event slot). The protocol layers arm through
// Env.Arm, which falls back to an AfterFunc closure on hosts that only run
// callbacks. A layer that arms data timers encodes a generation in the
// key and ignores a fire whose generation is stale, so a host may return
// a nil Timer from Arm (the emulator does) and a Stop that loses the race
// against the fire (a real timer whose callback is already waiting for
// the node's lock) changes nothing.
package peer

import (
	"math/rand"
	"time"
)

// ID identifies a protocol node. IDs are assigned by the deployment
// (simulator or real transport bootstrap) and are opaque to the protocol.
type ID uint32

// None is a sentinel identifier that never names a real node.
const None ID = ^ID(0)

// Transport sends frames to other nodes. Sends are unreliable and
// asynchronous: delivery may fail silently (paper assumes an unreliable
// point-to-point service). Implementations must be safe for concurrent use.
type Transport interface {
	// Send transmits a frame to the destination node. Implementations
	// must not retain the frame slice after Send returns (they copy or
	// fully serialise it first), so callers may reuse the buffer for the
	// next encode — protocol layers keep per-instance scratch buffers on
	// the strength of this.
	Send(to ID, frame []byte)
	// Local returns the identifier of this node.
	Local() ID
}

// Clock supplies the current time. Simulated deployments use a virtual
// clock; real deployments use the wall clock relative to process start.
type Clock interface {
	Now() time.Duration
}

// Timer is a cancellable pending callback.
type Timer interface {
	// Stop cancels the timer. It reports whether the timer was pending
	// (false when the callback already ran or was stopped before).
	Stop() bool
}

// Timers schedules callbacks. In simulated deployments callbacks run in
// virtual time on the simulator goroutine; in real deployments they run on
// their own goroutine.
type Timers interface {
	AfterFunc(d time.Duration, fn func()) Timer
}

// TimerSink receives the fires of timers armed as data. FireTimer reports
// whether the fire was live: false means the key was stale (the timer had
// been superseded) and nothing ran, which a host accounts as it would a
// stopped timer.
type TimerSink interface {
	FireTimer(key uint64) bool
}

// Arming is the Timers capability of arming a timer as data: when d has
// elapsed the host calls sink.FireTimer(key), with the same ordering and
// threading as an AfterFunc callback. The returned Timer may be nil when
// the host has nothing to cancel cheaply; the sink's key check then does
// the cancelling.
type Arming interface {
	Arm(d time.Duration, sink TimerSink, key uint64) Timer
}

// Env bundles everything a protocol layer needs from its hosting
// environment. RNG is the node's jitter stream, which spreads its periodic
// timers; core fills it with Stream(Config.Seed, self, StreamJitter) when
// it is nil. The node's other purposes (membership, strategy) draw from
// their own streams derived from Config.Seed, so a deployment seeding each
// node deterministically reproduces runs exactly.
type Env struct {
	Transport Transport
	Clock     Clock
	Timers    Timers
	RNG       *rand.Rand
}

// Now is shorthand for Env.Clock.Now().
func (e *Env) Now() time.Duration { return e.Clock.Now() }

// Self is shorthand for Env.Transport.Local().
func (e *Env) Self() ID { return e.Transport.Local() }

// Arm arms a data timer through Env.Timers: natively when the host
// implements Arming, otherwise as an AfterFunc closure that calls the sink.
func (e *Env) Arm(d time.Duration, sink TimerSink, key uint64) Timer {
	if a, ok := e.Timers.(Arming); ok {
		return a.Arm(d, sink, key)
	}
	return e.Timers.AfterFunc(d, func() { sink.FireTimer(key) })
}
