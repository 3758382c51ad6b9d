package neem

import (
	"net"
	"sync"
	"testing"
	"time"

	"emcast/internal/faults"
	"emcast/internal/peer"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReconnectAfterConnKill pins the self-healing core: when an
// established connection dies under the transport, the write loop
// reconnects (queue intact) and traffic resumes.
func TestReconnectAfterConnKill(t *testing.T) {
	a, b, _, inB := pair(t)
	a.Send(2, []byte("before"))
	inB.wait(t, 1)

	// Kill the established socket server-side, abruptly.
	b.mu.Lock()
	for nc := range b.accepted {
		nc.Close()
	}
	b.mu.Unlock()

	// Keep sending: the first writes may land in dead socket buffers, but
	// the loop must notice, re-dial and get frames through again.
	waitFor(t, 10*time.Second, "delivery after reconnect", func() bool {
		a.Send(2, []byte("after"))
		for _, f := range inB.wait(t, 1) {
			if string(f.data) == "after" {
				return true
			}
		}
		return false
	})
	if s := a.Stats(); s.Reconnects == 0 {
		t.Fatalf("no reconnect counted: %+v", s)
	}
}

// TestWriteDeadlineOnStalledReader: a peer that accepts but never reads
// must trip the write deadline — not wedge the write loop forever.
func TestWriteDeadlineOnStalledReader(t *testing.T) {
	// A raw listener that accepts and then ignores the socket.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var held []net.Conn
	var hmu sync.Mutex
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			hmu.Lock()
			held = append(held, nc)
			hmu.Unlock()
		}
	}()
	defer func() {
		hmu.Lock()
		for _, nc := range held {
			nc.Close()
		}
		hmu.Unlock()
	}()

	in := newInbox()
	a, err := Listen(Config{
		Self:         1,
		ListenAddr:   "127.0.0.1:0",
		Peers:        map[peer.ID]string{2: l.Addr().String()},
		WriteTimeout: 300 * time.Millisecond,
	}, in.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Large frames fill the kernel buffers fast, then block.
	big := make([]byte, 256<<10)
	for i := 0; i < 64; i++ {
		a.Send(2, big)
	}
	waitFor(t, 15*time.Second, "write deadline to fire", func() bool {
		return a.Stats().LostWrite > 0
	})
}

// TestGracefulCloseAnnouncesDeparture pins the wire difference between a
// leave and a crash: Close flushes and sends the departure sentinel, and
// the receiver's OnDeparture hook fires; an abrupt socket close must not
// fire it.
func TestGracefulCloseAnnouncesDeparture(t *testing.T) {
	departed := make(chan peer.ID, 4)
	inB := newInbox()
	b, err := Listen(Config{
		Self:        2,
		ListenAddr:  "127.0.0.1:0",
		OnDeparture: func(from peer.ID) { departed <- from },
	}, inB.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	inA := newInbox()
	a, err := Listen(Config{Self: 1, ListenAddr: "127.0.0.1:0"}, inA.handle)
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer(2, b.Addr().String())
	a.Send(2, []byte("payload"))
	inB.wait(t, 1)

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case from := <-departed:
		if from != 1 {
			t.Fatalf("departure from %d, want 1", from)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("graceful close did not announce departure")
	}
	if s := a.Stats(); s.DeparturesSent == 0 {
		t.Fatalf("DeparturesSent = 0: %+v", s)
	}
	waitFor(t, 5*time.Second, "receiver departure counter", func() bool {
		return b.Stats().DeparturesRecv > 0
	})

	// A crashed peer announces nothing: raw dial + handshake + abrupt close.
	nc, err := net.Dial("tcp", b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc.Write([]byte{0, 0, 0, 3}) // handshake as node 3
	nc.Close()
	select {
	case from := <-departed:
		t.Fatalf("abrupt close produced a departure from %d", from)
	case <-time.After(300 * time.Millisecond):
	}
}

// TestFilterSuppressesDeparture: the link filter silences goodbyes too,
// so a filter-emulated crash (the live harness's kill) really dies
// without announcing — the wire difference between leave and crash
// survives crash emulation.
func TestFilterSuppressesDeparture(t *testing.T) {
	departed := make(chan peer.ID, 4)
	inB := newInbox()
	b, err := Listen(Config{
		Self:        2,
		ListenAddr:  "127.0.0.1:0",
		Filter:      func(from, to peer.ID) bool { return from != 1 },
		OnDeparture: func(from peer.ID) { departed <- from },
	}, inB.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	inA := newInbox()
	a, err := Listen(Config{Self: 1, ListenAddr: "127.0.0.1:0"}, inA.handle)
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer(2, b.Addr().String())
	a.Send(2, []byte("silenced"))
	waitFor(t, 5*time.Second, "frame to cross the wire", func() bool {
		return b.Stats().BytesReceived > 0
	})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case from := <-departed:
		t.Fatalf("filtered peer's departure was heard (from %d)", from)
	case <-time.After(500 * time.Millisecond):
	}
	if got := b.Stats().DeparturesRecv; got != 0 {
		t.Fatalf("DeparturesRecv = %d for a filtered sender, want 0", got)
	}
}

// TestSuspectReapAndRecovery: an unreachable peer burns its dial budget,
// turns suspect, gets reaped — and a later Send starts a fresh cycle
// instead of hitting a dead entry.
func TestSuspectReapAndRecovery(t *testing.T) {
	in := newInbox()
	a, err := Listen(Config{
		Self:            1,
		ListenAddr:      "127.0.0.1:0",
		Peers:           map[peer.ID]string{2: "127.0.0.1:1"}, // refused
		DialTimeout:     200 * time.Millisecond,
		DialBackoffBase: 10 * time.Millisecond,
		DialBackoffMax:  50 * time.Millisecond,
		DialAttempts:    3,
	}, in.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	a.Send(2, []byte("doomed"))
	waitFor(t, 10*time.Second, "peer to be reaped", func() bool {
		return a.Stats().Reaped > 0 && len(a.health()) == 0
	})
	if s := a.Stats(); s.LostReap == 0 {
		t.Fatalf("reaped without accounting the queued frame: %+v", s)
	}

	// Now bring a real listener up at a fresh address and retarget: the
	// next Send must re-dial from scratch and deliver.
	inB := newInbox()
	b, err := Listen(Config{Self: 2, ListenAddr: "127.0.0.1:0"}, inB.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer(2, b.Addr().String())
	a.Send(2, []byte("revived"))
	frames := inB.wait(t, 1)
	if string(frames[0].data) != "revived" {
		t.Fatalf("got %q after revival", frames[0].data)
	}
	if st := a.health()[2]; st != stateUp {
		t.Fatalf("revived conn state = %v, want up", st)
	}
}

// TestHealthStates observes the dialing and backoff states directly.
func TestHealthStates(t *testing.T) {
	in := newInbox()
	a, err := Listen(Config{
		Self:            1,
		ListenAddr:      "127.0.0.1:0",
		Peers:           map[peer.ID]string{2: "127.0.0.1:1"}, // refused
		DialTimeout:     200 * time.Millisecond,
		DialBackoffBase: 300 * time.Millisecond,
		DialBackoffMax:  2 * time.Second,
		DialAttempts:    100, // never reap during the test
	}, in.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Send(2, []byte("x"))
	waitFor(t, 5*time.Second, "backoff state", func() bool {
		return a.health()[2] == stateBackoff
	})
}

// TestLostReasonBreakdown pins the labeled loss counters and the
// FramesLost = Σ reasons invariant.
func TestLostReasonBreakdown(t *testing.T) {
	in := newInbox()
	a, err := Listen(Config{
		Self:       1,
		ListenAddr: "127.0.0.1:0",
		Filter:     func(from, to peer.ID) bool { return to != 9 },
	}, in.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Send(9, []byte("filtered"))
	a.Send(42, []byte("who"))
	s := a.Stats()
	if s.LostFilter != 1 || s.LostUnknown != 1 {
		t.Fatalf("filter/unknown = %d/%d, want 1/1", s.LostFilter, s.LostUnknown)
	}
	sum := lostSum(s)
	if s.FramesLost != sum || sum != 2 {
		t.Fatalf("FramesLost = %d, Σreasons = %d, want 2", s.FramesLost, sum)
	}
}

// TestLiveFaultInjection drives the shared fault vocabulary over real
// sockets: drop rules lose inbound frames (counted under the fault
// reason), duplicate rules deliver twice, and clearing rules heals.
func TestLiveFaultInjection(t *testing.T) {
	inj := faults.New(7)
	if err := inj.Install(faults.LinkRule{Drop: 1}); err != nil {
		t.Fatal(err)
	}
	inB := newInbox()
	b, err := Listen(Config{Self: 2, ListenAddr: "127.0.0.1:0", Faults: inj}, inB.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	inA := newInbox()
	a, err := Listen(Config{Self: 1, ListenAddr: "127.0.0.1:0"}, inA.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.AddPeer(2, b.Addr().String())

	a.Send(2, []byte("dropped"))
	waitFor(t, 5*time.Second, "fault drop", func() bool {
		return b.Stats().LostFault > 0
	})
	if got := len(inB.wait(t, 0)); got != 0 {
		t.Fatalf("%d frames leaked through a drop-all fault", got)
	}

	// Heal, then duplicate.
	inj.Clear()
	if err := inj.Install(faults.LinkRule{Duplicate: 1}); err != nil {
		t.Fatal(err)
	}
	a.Send(2, []byte("twice"))
	frames := inB.wait(t, 2)
	if string(frames[0].data) != "twice" || string(frames[1].data) != "twice" {
		t.Fatalf("duplicate delivery got %q, %q", frames[0].data, frames[1].data)
	}
}

// TestStallFreezesAndResumes: a stalled transport stops processing
// inbound frames for the stall window, then resumes without losing the
// connection.
func TestStallFreezesAndResumes(t *testing.T) {
	a, b, _, inB := pair(t)
	a.Send(2, []byte("pre"))
	inB.wait(t, 1)

	b.Stall(600 * time.Millisecond)
	start := time.Now()
	a.Send(2, []byte("during"))
	frames := inB.wait(t, 2)
	if elapsed := time.Since(start); elapsed < 500*time.Millisecond {
		t.Fatalf("frame delivered %v into a 600ms stall", elapsed)
	}
	if string(frames[1].data) != "during" {
		t.Fatalf("got %q after stall", frames[1].data)
	}
	// The connection survived the stall.
	if st := a.health()[2]; st != stateUp {
		t.Fatalf("conn state after stall = %v, want up", st)
	}
}
