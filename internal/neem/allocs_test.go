//go:build !race

// The race detector allocates on its own account, and sync.Pool drops
// items at random under it, so these pins run only without it.

package neem

import (
	"net"
	"testing"
	"time"

	"emcast/internal/faults"
	"emcast/internal/peer"
)

// TestDeliverAllocs pins the inbound path at zero allocations per frame:
// with a fault injector installed but no rule armed, a frame goes from
// the read buffer to the handler as a view and never reaches the heap.
// A closure in deliver that captures the frame, such as the fault plane's
// delayed delivery, moves it to the heap: one allocation per frame.
func TestDeliverAllocs(t *testing.T) {
	tr := &Transport{cfg: Config{Self: 2, Faults: faults.New(1)}}
	var got int
	tr.SetHandler(func(_ peer.ID, frame []byte) { got += len(frame) })
	frame := make([]byte, 256)
	if n := testing.AllocsPerRun(1000, func() { tr.deliver(1, frame) }); n != 0 {
		t.Fatalf("deliver of a 256 B frame: %v allocations, want 0", n)
	}
	if got == 0 {
		t.Fatal("the handler never ran")
	}
}

// TestFanOutAllocs pins a large frame's fan-out at one allocation: a
// 32 KiB frame sent to 11 peers is copied into one wire buffer, which
// all 11 queues hold. Each run then writes every queue the way the write
// loop does, which drops the memo, so the next run pays its copy again:
// 1 per run. A copy per destination reads 11.
func TestFanOutAllocs(t *testing.T) {
	const fanout = 11
	tr := offline(fanout)
	frame := make([]byte, 32<<10)
	var nc net.Conn = discardConn{}
	run := func() {
		for p := peer.ID(2); p < 2+fanout; p++ {
			tr.Send(p, frame)
		}
		for _, c := range tr.conns {
			if n, err := tr.writePending(c, nc, time.Time{}); n != 1 || err != nil {
				t.Fatalf("wrote %d frames to %d (%v), want 1", n, c.to, err)
			}
		}
	}
	if n := testing.AllocsPerRun(100, run); n > 1 {
		t.Fatalf("a 32 KiB frame to %d peers: %v allocations, want at most 1", fanout, n)
	}
	if s := tr.Stats(); s.FramesSent != 101*fanout || s.FramesLost != 0 {
		t.Fatalf("after the runs: %+v", s)
	}
}

// TestSendQueueAllocs pins a small frame's round trip through a send
// queue at zero allocations: the chunk comes from the pool and goes back
// to it, and the queue's chunk list is the write loop's spare.
func TestSendQueueAllocs(t *testing.T) {
	var q sendq
	var spare net.Buffers
	frame := make([]byte, 256)
	cycle := func() {
		q.push(frame, sendQueueSize)
		batch, _ := q.take(spare)
		spare = batch
		recycle(batch)
	}
	cycle() // both chunk lists exist after two cycles
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("push/take/recycle of a 256 B frame: %v allocations, want 0", n)
	}
}

// offline returns a transport with an outbound connection to each of the
// peers 2 … n+1 and no goroutine behind any of them: Send queues frames
// and nothing takes them unless the test does.
func offline(n int) *Transport {
	tr := &Transport{
		cfg:   Config{Self: 1, QueueSize: sendQueueSize},
		peers: make(map[peer.ID]string),
		conns: make(map[peer.ID]*conn),
	}
	for p := peer.ID(2); p < peer.ID(2+n); p++ {
		tr.peers[p] = "unused"
		tr.conns[p] = &conn{to: p, wake: make(chan struct{}, 1)}
	}
	return tr
}

// discardConn is a socket that accepts every write.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }
