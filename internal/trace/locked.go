package trace

import (
	"sync"
	"time"

	"emcast/internal/ids"
	"emcast/internal/peer"
)

// Locked makes one Streaming collector safe to share across goroutines:
// the Tracer events folded into it and the reads a report needs run under
// one mutex. The simulator never needs it; the live harness, whose peers
// trace from their transport goroutines into one collector, does.
type Locked struct {
	mu sync.Mutex
	s  *Streaming
}

// NewLocked wraps s, which must not be used directly afterwards.
func NewLocked(s *Streaming) *Locked { return &Locked{s: s} }

// Multicast implements Tracer.
func (l *Locked) Multicast(origin peer.ID, id ids.ID, at time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.Multicast(origin, id, at)
}

// Delivered implements Tracer.
func (l *Locked) Delivered(node peer.ID, id ids.ID, at time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.Delivered(node, id, at)
}

// PayloadSent implements Tracer.
func (l *Locked) PayloadSent(from, to peer.ID, id ids.ID, bytes int, eager bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.PayloadSent(from, to, id, bytes, eager)
}

// ControlSent implements Tracer.
func (l *Locked) ControlSent(from, to peer.ID, kind string, bytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.ControlSent(from, to, kind, bytes)
}

// DuplicatePayload implements Tracer.
func (l *Locked) DuplicatePayload(node peer.ID, id ids.ID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.DuplicatePayload(node, id)
}

// RequestMiss implements Tracer.
func (l *Locked) RequestMiss(node peer.ID, id ids.ID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.RequestMiss(node, id)
}

// Checkpoint copies the cumulative counters and link loads.
func (l *Locked) Checkpoint() Checkpoint {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.Checkpoint()
}

// CheckpointAndMessages captures the checkpoint and a deep copy of the
// message aggregates under one lock. The live harness takes its final phase
// boundary this way: transport goroutines may still deliver stragglers
// while the report is assembled, and separate calls would let those leak
// into message-scoped metrics without the matching counter increments.
// The copy is O(deliveries) — fine once at the end of a run, which is why
// ordinary boundaries use Checkpoint alone.
func (l *Locked) CheckpointAndMessages() (Checkpoint, []MsgStats) {
	l.mu.Lock()
	defer l.mu.Unlock()
	msgs := l.s.MessageStats()
	for i := range msgs {
		m := &msgs[i]
		m.Latencies = append([]float64(nil), m.Latencies...)
		m.delivered = bitset{words: append([]uint64(nil), m.delivered.words...)}
		if m.completions != nil {
			m.completions = append([]delivery(nil), m.completions...)
		}
	}
	return l.s.Checkpoint(), msgs
}

// RetainCompletions forwards to Streaming.RetainCompletions.
func (l *Locked) RetainCompletions(from, to time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.RetainCompletions(from, to)
}

var _ Tracer = (*Locked)(nil)
