package peertest

import (
	"testing"
	"time"

	"emcast/internal/peer"
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

func TestMeshRecordsAndDelivers(t *testing.T) {
	m := NewMesh()
	var got []Frame
	m.Endpoint(1, func(from peer.ID, frame []byte) {
		got = append(got, Frame{From: from, Data: frame})
	})
	tr := m.Endpoint(2, nil)
	if tr.Local() != 2 {
		t.Fatal("Local wrong")
	}
	tr.Send(1, []byte("hi"))
	if len(got) != 0 {
		t.Fatal("delivered before Drain")
	}
	if n := m.Drain(); n != 1 {
		t.Fatalf("Drain = %d", n)
	}
	if len(got) != 1 || got[0].From != 2 || string(got[0].Data) != "hi" {
		t.Fatalf("got = %+v", got)
	}
	if len(m.Log()) != 1 {
		t.Fatal("log missing frame")
	}
}

func TestMeshDrainHandlesChains(t *testing.T) {
	m := NewMesh()
	var t1, t2 peer.Transport
	m.Endpoint(1, func(from peer.ID, frame []byte) {
		if len(frame) < 3 {
			t1.Send(2, append(frame, 1))
		}
	})
	m.Endpoint(2, func(from peer.ID, frame []byte) {
		if len(frame) < 3 {
			t2.Send(1, append(frame, 2))
		}
	})
	t1 = m.Endpoint(1, nil)
	t2 = m.Endpoint(2, nil)
	t1.Send(2, []byte{0})
	n := m.Drain()
	if n != 3 {
		t.Fatalf("Drain delivered %d frames, want 3 (chain)", n)
	}
}

func TestMeshSendCopiesFrame(t *testing.T) {
	m := NewMesh()
	var got []byte
	m.Endpoint(1, func(from peer.ID, frame []byte) { got = frame })
	tr := m.Endpoint(2, nil)
	buf := []byte("abc")
	tr.Send(1, buf)
	buf[0] = 'Z'
	m.Drain()
	if string(got) != "abc" {
		t.Fatalf("frame mutated: %q", got)
	}
}

func TestMeshReset(t *testing.T) {
	m := NewMesh()
	tr := m.Endpoint(1, nil)
	tr.Send(2, []byte("x"))
	m.Reset()
	if len(m.Log()) != 0 || m.Drain() != 0 {
		t.Fatal("Reset did not clear state")
	}
}
