// Package peertest provides a manual virtual clock with schedulable
// timers, for driving a protocol layer that needs only a clock and
// timers. Tests that exchange frames run their nodes on an emulated
// network (internal/emunet), whose frame buffers are the ones the
// simulator reuses.
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

var (
	_ peer.Clock  = (*Sim)(nil)
	_ peer.Timers = (*Sim)(nil)
	_ peer.Arming = (*Sim)(nil)
)
