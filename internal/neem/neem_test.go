package neem

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"emcast/internal/peer"
)

// pair starts two connected transports on loopback.
func pair(t *testing.T) (*Transport, *Transport, *inbox, *inbox) {
	t.Helper()
	inA, inB := newInbox(), newInbox()
	a, err := Listen(Config{Self: 1, ListenAddr: "127.0.0.1:0"}, inA.handle)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := Listen(Config{Self: 2, ListenAddr: "127.0.0.1:0"}, inB.handle)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	a.AddPeer(2, b.Addr().String())
	b.AddPeer(1, a.Addr().String())
	return a, b, inA, inB
}

type inbox struct {
	mu     sync.Mutex
	frames []struct {
		from peer.ID
		data []byte
	}
}

func newInbox() *inbox { return &inbox{} }

func (i *inbox) handle(from peer.ID, frame []byte) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.frames = append(i.frames, struct {
		from peer.ID
		data []byte
	}{from, append([]byte(nil), frame...)})
}

func (i *inbox) wait(t *testing.T, n int) []struct {
	from peer.ID
	data []byte
} {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		i.mu.Lock()
		if len(i.frames) >= n {
			out := append(i.frames[:0:0], i.frames...)
			i.mu.Unlock()
			return out
		}
		i.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d frames", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSendAndReceive(t *testing.T) {
	a, _, _, inB := pair(t)
	a.Send(2, []byte("hello"))
	frames := inB.wait(t, 1)
	if frames[0].from != 1 || string(frames[0].data) != "hello" {
		t.Fatalf("got %+v", frames[0])
	}
}

func TestBidirectional(t *testing.T) {
	a, b, inA, inB := pair(t)
	a.Send(2, []byte("ping"))
	inB.wait(t, 1)
	b.Send(1, []byte("pong"))
	frames := inA.wait(t, 1)
	if string(frames[0].data) != "pong" {
		t.Fatalf("got %q", frames[0].data)
	}
}

func TestFramingPreservesBoundaries(t *testing.T) {
	a, _, _, inB := pair(t)
	var want [][]byte
	for i := 0; i < 50; i++ {
		f := bytes.Repeat([]byte{byte(i)}, i+1)
		want = append(want, f)
		a.Send(2, f)
	}
	frames := inB.wait(t, 50)
	for i, f := range frames {
		if !bytes.Equal(f.data, want[i]) {
			t.Fatalf("frame %d = %v, want %v", i, f.data, want[i])
		}
	}
}

func TestSendToUnknownPeerDropped(t *testing.T) {
	a, _, _, _ := pair(t)
	a.Send(99, []byte("void")) // not in the address book: silently dropped
	// The transport must remain healthy.
	a.Send(2, []byte("ok"))
}

func TestSendAfterCloseIsNoop(t *testing.T) {
	a, _, _, _ := pair(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a.Send(2, []byte("late"))
	if err := a.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
}

func TestUnreachablePeerDoesNotBlock(t *testing.T) {
	in := newInbox()
	a, err := Listen(Config{
		Self:        1,
		ListenAddr:  "127.0.0.1:0",
		Peers:       map[peer.ID]string{2: "127.0.0.1:1"}, // nothing listens there
		DialTimeout: 200 * time.Millisecond,
	}, in.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			a.Send(2, []byte("x"))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("sends to unreachable peer blocked")
	}
}

func TestQueuePurgesOldest(t *testing.T) {
	// Fill the queue of a never-connecting peer beyond capacity: Send
	// must never block and must purge the oldest frames. Where TEST-NET
	// is not a blackhole (a sandbox that answers every dial), the stall
	// keeps the frames pending just the same.
	in := newInbox()
	a, err := Listen(Config{
		Self:         1,
		ListenAddr:   "127.0.0.1:0",
		Peers:        map[peer.ID]string{2: "203.0.113.1:9"}, // TEST-NET: blackhole
		DialTimeout:  24 * time.Hour,                         // keep the writer stuck in dial
		DrainTimeout: 100 * time.Millisecond,
	}, in.handle)
	if err != nil {
		t.Fatal(err)
	}
	a.Stall(time.Hour)
	for i := 0; i < sendQueueSize*3; i++ {
		a.Send(2, []byte{byte(i)})
	}
	if got := a.Stats().LostPurge; got != sendQueueSize*2 {
		t.Fatalf("dropped = %d, want %d (purging policy)", got, sendQueueSize*2)
	}
	// Close must cancel the stuck dial and return promptly.
	done := make(chan struct{})
	go func() {
		a.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a stuck dial")
	}
}

func TestRejectsOversizedInboundFrame(t *testing.T) {
	in := newInbox()
	a, err := Listen(Config{Self: 1, ListenAddr: "127.0.0.1:0"}, in.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	nc, err := net.Dial("tcp", a.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Handshake as node 7, then claim a 100MB frame.
	nc.Write([]byte{0, 0, 0, 7})
	nc.Write([]byte{0x06, 0x40, 0x00, 0x00})
	buf := make([]byte, 1)
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("connection survived an oversized frame")
	}
}

func TestHandlerSwap(t *testing.T) {
	a, b, _, _ := pair(t)
	got := make(chan peer.ID, 1)
	b.SetHandler(func(from peer.ID, frame []byte) {
		select {
		case got <- from:
		default:
		}
	})
	a.Send(2, []byte("x"))
	select {
	case from := <-got:
		if from != 1 {
			t.Fatalf("from = %d", from)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("swapped handler never called")
	}
}

// TestCloseWithUnreachablePeer pins the shutdown path after a failed
// dial: the write loop backing an unreachable peer either exits on its
// own (after the backoff window) or via the conn's done channel — Close
// must never wait forever on it, and the undeliverable frames must be
// accounted as lost.
func TestCloseWithUnreachablePeer(t *testing.T) {
	in := newInbox()
	a, err := Listen(Config{Self: 1, ListenAddr: "127.0.0.1:0", DialTimeout: 200 * time.Millisecond}, in.handle)
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer(2, "127.0.0.1:1") // nothing listens there
	a.Send(2, []byte("into the void"))
	time.Sleep(500 * time.Millisecond) // let the dial fail and the drain start
	a.Send(2, []byte("still nothing"))
	done := make(chan struct{})
	go func() {
		a.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an unreachable peer's write loop")
	}
	if a.Stats().FramesLost == 0 {
		t.Fatal("frames to an unreachable peer not counted as lost")
	}
}

func TestManyPeers(t *testing.T) {
	const n = 6
	inboxes := make([]*inbox, n)
	transports := make([]*Transport, n)
	addrs := make(map[peer.ID]string, n)
	for i := 0; i < n; i++ {
		inboxes[i] = newInbox()
		tr, err := Listen(Config{Self: peer.ID(i), ListenAddr: "127.0.0.1:0"}, inboxes[i].handle)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		transports[i] = tr
		addrs[peer.ID(i)] = tr.Addr().String()
	}
	// Wire the address books after every listener is bound — the
	// run-time AddPeer path late joiners use.
	for i, tr := range transports {
		for id, addr := range addrs {
			if int(id) != i {
				tr.AddPeer(id, addr)
			}
		}
	}
	// Everyone sends to everyone.
	for i, tr := range transports {
		for j := 0; j < n; j++ {
			if j != i {
				tr.Send(peer.ID(j), []byte(fmt.Sprintf("%d->%d", i, j)))
			}
		}
	}
	for i, in := range inboxes {
		frames := in.wait(t, n-1)
		senders := make(map[peer.ID]bool)
		for _, f := range frames {
			senders[f.from] = true
		}
		if len(senders) != n-1 {
			t.Fatalf("node %d heard from %d senders, want %d", i, len(senders), n-1)
		}
	}
}

func TestStatsConcurrentReaders(t *testing.T) {
	a, b, inA, inB := pair(t)

	// Hammer Stats from several goroutines while traffic flows in both
	// directions — the shape of a live /metrics scrape against a running
	// harness. Run under -race this proves the counters are safe to read
	// mid-run.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = a.Stats()
					_ = b.Stats()
				}
			}
		}()
	}

	const n = 200
	payload := bytes.Repeat([]byte{0xab}, 64)
	for i := 0; i < n; i++ {
		a.Send(2, payload)
		b.Send(1, payload)
	}
	inA.wait(t, n)
	inB.wait(t, n)
	close(stop)
	wg.Wait()

	const frameWire = 64 + 4 // payload + length prefix
	sa, sb := a.Stats(), b.Stats()
	if sa.FramesSent != n || sb.FramesSent != n {
		t.Fatalf("frames sent = %d/%d, want %d", sa.FramesSent, sb.FramesSent, n)
	}
	if sa.BytesSent != n*frameWire || sa.BytesReceived != n*frameWire {
		t.Fatalf("a bytes sent/recv = %d/%d, want %d", sa.BytesSent, sa.BytesReceived, n*frameWire)
	}
	if sa.FramesLost != 0 || sa.QueueDepth != 0 {
		t.Fatalf("a lost/depth = %d/%d after drain, want 0/0", sa.FramesLost, sa.QueueDepth)
	}
}
