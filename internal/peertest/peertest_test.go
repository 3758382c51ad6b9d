package peertest

import (
	"testing"
	"time"
)

func TestSimTimerOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.AfterFunc(20*time.Millisecond, func() { order = append(order, 2) })
	s.AfterFunc(10*time.Millisecond, func() { order = append(order, 1) })
	s.AfterFunc(10*time.Millisecond, func() { order = append(order, 11) }) // FIFO among ties
	s.Advance(15 * time.Millisecond)
	if len(order) != 2 || order[0] != 1 || order[1] != 11 {
		t.Fatalf("order after 15ms = %v", order)
	}
	if s.Now() != 15*time.Millisecond {
		t.Fatalf("Now = %v", s.Now())
	}
	s.Advance(10 * time.Millisecond)
	if len(order) != 3 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestSimTimerStop(t *testing.T) {
	s := NewSim()
	fired := false
	timer := s.AfterFunc(time.Millisecond, func() { fired = true })
	if !timer.Stop() || timer.Stop() {
		t.Fatal("Stop semantics wrong")
	}
	s.Advance(time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

// keySink records the keys of the data timers fired at it.
type keySink []uint64

func (k *keySink) FireTimer(key uint64) bool {
	*k = append(*k, key)
	return true
}

// TestSimArm: data timers fire their sink with their key, in the same
// (deadline, arming order) as callbacks, and their handle stops them.
func TestSimArm(t *testing.T) {
	s := NewSim()
	var got keySink
	var order []uint64
	s.Arm(20*time.Millisecond, &got, 2)
	s.Arm(10*time.Millisecond, &got, 1)
	s.AfterFunc(10*time.Millisecond, func() { order = append(order, uint64(len(got))) })
	stopped := s.Arm(5*time.Millisecond, &got, 99)
	if !stopped.Stop() {
		t.Fatal("Stop on a pending data timer returned false")
	}
	s.Advance(time.Second)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("sink saw keys %v, want [1 2]", got)
	}
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("callback ran after %v data fires, want 1 (armed after the 10ms data timer)", order)
	}
}

func TestSimTimerRescheduleDuringFire(t *testing.T) {
	s := NewSim()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			s.AfterFunc(10*time.Millisecond, tick)
		}
	}
	s.AfterFunc(10*time.Millisecond, tick)
	s.Advance(time.Second)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}
