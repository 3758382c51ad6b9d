// Package peertest provides in-memory implementations of the peer
// interfaces for unit-testing protocol layers in isolation: a manual
// virtual clock with schedulable timers and an instant-delivery mesh
// transport that records every frame.
package peertest

import (
	"container/heap"
	"sync"
	"time"

	"emcast/internal/peer"
)

// Sim is a manual virtual clock and timer wheel. It implements peer.Clock,
// peer.Timers and peer.Arming. Timers fire when Advance moves the clock
// past their deadline, in deadline order (FIFO among equal deadlines).
// Arm returns a stoppable handle, as a real-network host does.
type Sim struct {
	mu     sync.Mutex
	now    time.Duration
	seq    uint64
	timers timerHeap
}

// NewSim returns a clock at time zero.
func NewSim() *Sim { return &Sim{} }

// Now implements peer.Clock.
func (s *Sim) Now() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// AfterFunc implements peer.Timers.
func (s *Sim) AfterFunc(d time.Duration, fn func()) peer.Timer {
	return s.push(d, &simTimer{fn: fn})
}

// Arm implements peer.Arming.
func (s *Sim) Arm(d time.Duration, sink peer.TimerSink, key uint64) peer.Timer {
	return s.push(d, &simTimer{sink: sink, key: key})
}

// push schedules t to fire d from now.
func (s *Sim) push(d time.Duration, t *simTimer) *simTimer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d < 0 {
		d = 0
	}
	s.seq++
	t.sim, t.at, t.seq = s, s.now+d, s.seq
	heap.Push(&s.timers, t)
	return t
}

// Advance moves the clock forward by d, firing due timers in order.
func (s *Sim) Advance(d time.Duration) {
	s.mu.Lock()
	target := s.now + d
	for {
		if s.timers.Len() == 0 || s.timers[0].at > target {
			break
		}
		t := heap.Pop(&s.timers).(*simTimer)
		if t.stopped {
			continue
		}
		s.now = t.at
		t.fired = true
		s.mu.Unlock()
		if t.sink != nil {
			t.sink.FireTimer(t.key)
		} else {
			t.fn()
		}
		s.mu.Lock()
	}
	s.now = target
	s.mu.Unlock()
}

// simTimer is a pending AfterFunc callback (fn) or data timer (sink,
// key).
type simTimer struct {
	sim     *Sim
	at      time.Duration
	seq     uint64
	fn      func()
	sink    peer.TimerSink
	key     uint64
	stopped bool
	fired   bool
}

// Stop implements peer.Timer.
func (t *simTimer) Stop() bool {
	t.sim.mu.Lock()
	defer t.sim.mu.Unlock()
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	return true
}

type timerHeap []*simTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x interface{}) { *h = append(*h, x.(*simTimer)) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	*h = old[:n-1]
	return t
}

// Frame is one recorded transmission.
type Frame struct {
	From, To peer.ID
	Data     []byte
}

// Mesh is an in-memory transport hub: every registered endpoint can send to
// every other, with full recording. Frames queue on Send and are handed to
// handlers by Drain, so a handler sending in response never re-enters
// another handler on the same call stack (per-node locks cannot deadlock).
type Mesh struct {
	mu       sync.Mutex
	handlers map[peer.ID]func(from peer.ID, frame []byte)
	log      []Frame
	queue    []Frame
}

// NewMesh returns an empty hub.
func NewMesh() *Mesh {
	return &Mesh{
		handlers: make(map[peer.ID]func(peer.ID, []byte)),
	}
}

// Endpoint returns a peer.Transport bound to id, registering its handler.
// A nil handler records frames without delivering.
func (m *Mesh) Endpoint(id peer.ID, handler func(from peer.ID, frame []byte)) peer.Transport {
	m.mu.Lock()
	defer m.mu.Unlock()
	if handler != nil {
		m.handlers[id] = handler
	}
	return &meshTransport{mesh: m, self: id}
}

// SetHandler binds or replaces the handler for an endpoint.
func (m *Mesh) SetHandler(id peer.ID, handler func(from peer.ID, frame []byte)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[id] = handler
}

// Log returns a copy of all recorded frames.
func (m *Mesh) Log() []Frame {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Frame(nil), m.log...)
}

// Reset clears the frame log and any undelivered queued frames.
func (m *Mesh) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.log = nil
	m.queue = nil
}

type meshTransport struct {
	mesh *Mesh
	self peer.ID
}

// Send implements peer.Transport.
func (t *meshTransport) Send(to peer.ID, frame []byte) {
	m := t.mesh
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := append([]byte(nil), frame...)
	f := Frame{From: t.self, To: to, Data: cp}
	m.log = append(m.log, f)
	m.queue = append(m.queue, f)
}

// Drain delivers queued frames (including frames enqueued by the handlers
// it invokes) until the queue is empty. It returns the number of frames
// delivered.
func (m *Mesh) Drain() int {
	n := 0
	for {
		m.mu.Lock()
		if len(m.queue) == 0 {
			m.mu.Unlock()
			return n
		}
		next := m.queue[0]
		m.queue = m.queue[1:]
		h := m.handlers[next.To]
		m.mu.Unlock()
		if h != nil {
			h(next.From, next.Data)
		}
		n++
	}
}

// Local implements peer.Transport.
func (t *meshTransport) Local() peer.ID { return t.self }

var (
	_ peer.Clock     = (*Sim)(nil)
	_ peer.Timers    = (*Sim)(nil)
	_ peer.Arming    = (*Sim)(nil)
	_ peer.Transport = (*meshTransport)(nil)
)
