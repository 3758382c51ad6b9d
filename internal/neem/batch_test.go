package neem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"emcast/internal/faults"
	"emcast/internal/peer"
)

// listen starts a transport that is closed with the test.
func listen(t *testing.T, cfg Config, h Handler) *Transport {
	t.Helper()
	cfg.ListenAddr = "127.0.0.1:0"
	tr, err := Listen(cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// numbered is test frame i: its number, then filler whose length varies so
// that a run of them crosses every size class of the wire path — frames
// packed many to a chunk, frames with a chunk to themselves, frames larger
// than a read buffer, and one larger than a body buffer's first step.
func numbered(i int) []byte {
	size := 4 + i%300
	switch {
	case i%97 == 5:
		size = 70_000
	case i%11 == 3:
		size = 5_000
	}
	f := bytes.Repeat([]byte{byte(i)}, size)
	binary.BigEndian.PutUint32(f, uint32(i))
	return f
}

func lostSum(s Stats) uint64 {
	var sum uint64
	for _, r := range LostReasons() {
		sum += s.Lost(r)
	}
	return sum
}

// resetInbound kills every connection tr accepted with a TCP reset, so
// the remote's next write fails instead of vanishing into a dead socket.
func resetInbound(tr *Transport) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for nc := range tr.accepted {
		nc.(*net.TCPConn).SetLinger(0)
		nc.Close()
	}
}

// TestBatchedTransportSemantics pins what the transport promises now that
// the socket is paid per batch: none of it may depend on how frames
// happened to be grouped. Sender-side Stall is the tool throughout — it
// holds frames pending without any dependence on timing.
func TestBatchedTransportSemantics(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"per-link FIFO across every frame size", func(t *testing.T) {
			inB := newInbox()
			b := listen(t, Config{Self: 2}, inB.handle)
			a := listen(t, Config{Self: 1, Peers: map[peer.ID]string{2: b.Addr().String()}}, nil)
			const n = 400
			a.Stall(50 * time.Millisecond) // the first batch is a big one
			for i := 0; i < n; i++ {
				a.Send(2, numbered(i))
				if i == n/2 {
					time.Sleep(60 * time.Millisecond) // the rest trickle
				}
			}
			for i, f := range inB.wait(t, n) {
				if f.from != 1 || !bytes.Equal(f.data, numbered(i)) {
					t.Fatalf("frame %d: got %d bytes numbered %d", i, len(f.data), binary.BigEndian.Uint32(f.data))
				}
			}
			var wire uint64
			for i := 0; i < n; i++ {
				wire += 4 + uint64(len(numbered(i)))
			}
			if s := a.Stats(); s.FramesSent != n || s.BytesSent != wire || s.FramesLost != 0 {
				t.Fatalf("sender stats %+v, want %d frames / %d bytes / none lost", s, n, wire)
			}
			if s := b.Stats(); s.BytesReceived != wire {
				t.Fatalf("receiver read %d bytes, want %d", s.BytesReceived, wire)
			}
		}},

		{"purge is exact and oldest-first", func(t *testing.T) {
			inB := newInbox()
			b := listen(t, Config{Self: 2}, inB.handle)
			a := listen(t, Config{Self: 1, QueueSize: 8, Peers: map[peer.ID]string{2: b.Addr().String()}}, nil)
			a.Send(2, numbered(0))
			inB.wait(t, 1)

			a.Stall(300 * time.Millisecond)
			for i := 1; i <= 8; i++ {
				a.Send(2, numbered(i))
			}
			if s := a.Stats(); s.LostPurge != 0 || s.QueueDepth != 8 {
				t.Fatalf("a frame was purged while a slot was free: %+v", s)
			}
			for i := 9; i <= 20; i++ {
				a.Send(2, numbered(i))
			}
			if s := a.Stats(); s.LostPurge != 12 || s.QueueDepth != 8 || s.FramesSent != 1 {
				t.Fatalf("after 20 sends into 8 slots: %+v", s)
			}
			for i, f := range inB.wait(t, 9)[1:] {
				if want := numbered(13 + i); !bytes.Equal(f.data, want) {
					t.Fatalf("survivor %d is frame %d, want %d (the newest 8, in order)", i, binary.BigEndian.Uint32(f.data), 13+i)
				}
			}

			// The load of the old livelock regression test: 16 senders
			// hammering one full queue. Every Send returns, and every frame
			// is pending, written or purged — none twice, none unaccounted.
			c := listen(t, Config{Self: 3, QueueSize: 8, DrainTimeout: 50 * time.Millisecond,
				Peers: map[peer.ID]string{2: b.Addr().String()}}, nil)
			c.Stall(time.Hour)
			const senders, perSender = 16, 500
			var wg sync.WaitGroup
			for g := 0; g < senders; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perSender; i++ {
						c.Send(2, []byte("spin"))
					}
				}()
			}
			wg.Wait()
			s := c.Stats()
			if s.LostPurge+uint64(s.QueueDepth)+s.FramesSent != senders*perSender || s.QueueDepth != 8 {
				t.Fatalf("purged %d + pending %d + written %d != sent %d", s.LostPurge, s.QueueDepth, s.FramesSent, senders*perSender)
			}
			if s.FramesLost != lostSum(s) || s.FramesLost != s.LostPurge {
				t.Fatalf("FramesLost %d, Σ reasons %d, purged %d", s.FramesLost, lostSum(s), s.LostPurge)
			}
		}},

		{"a failed batch is lost whole, a reconnect keeps what was not handed to the socket", func(t *testing.T) {
			inB := newInbox()
			b := listen(t, Config{Self: 2}, inB.handle)
			a := listen(t, Config{Self: 1, DialTimeout: 200 * time.Millisecond,
				DialBackoffBase: 10 * time.Millisecond, DialBackoffMax: 40 * time.Millisecond, DialAttempts: 1 << 20,
				Peers: map[peer.ID]string{2: b.Addr().String()}}, nil)
			a.Send(2, []byte("before"))
			inB.wait(t, 1)

			// Freeze the writer, reset the connection under it and point
			// the address book at a port nothing listens on: the five
			// frames pending go out as one batch into a reset socket.
			a.Stall(150 * time.Millisecond)
			a.AddPeer(2, "127.0.0.1:1")
			resetInbound(b)
			for i := 0; i < 5; i++ {
				a.Send(2, numbered(i))
			}
			waitFor(t, 5*time.Second, "the batch to fail", func() bool { return a.Stats().LostWrite > 0 })
			waitFor(t, 5*time.Second, "backoff", func() bool { return a.health()[2] == stateBackoff })
			if s := a.Stats(); s.LostWrite != 5 || s.FramesSent != 1 || s.FramesLost != lostSum(s) {
				t.Fatalf("after the failed batch: %+v, want all 5 frames lost to the write", s)
			}

			// The connection is down: these wait in the queue, and go out,
			// in order, once the peer is reachable again.
			for i := 5; i < 9; i++ {
				a.Send(2, numbered(i))
			}
			if s := a.Stats(); s.QueueDepth != 4 {
				t.Fatalf("QueueDepth = %d while the link is down, want 4", s.QueueDepth)
			}
			a.AddPeer(2, b.Addr().String())
			for i, f := range inB.wait(t, 5)[1:] {
				if !bytes.Equal(f.data, numbered(5+i)) {
					t.Fatalf("after reconnect frame %d is %d", i, binary.BigEndian.Uint32(f.data))
				}
			}
			if s := a.Stats(); s.Reconnects != 1 || s.LostWrite != 5 || s.FramesLost != 5 || s.QueueDepth != 0 {
				t.Fatalf("after reconnect: %+v", s)
			}
		}},

		{"graceful Close announces departure after the last drained batch", func(t *testing.T) {
			inB := newInbox()
			seenAtDeparture := make(chan int, 1)
			b := listen(t, Config{Self: 2, OnDeparture: func(peer.ID) {
				inB.mu.Lock()
				seenAtDeparture <- len(inB.frames)
				inB.mu.Unlock()
			}}, inB.handle)
			a := listen(t, Config{Self: 1, Peers: map[peer.ID]string{2: b.Addr().String()}}, nil)
			a.Send(2, numbered(0))
			inB.wait(t, 1)
			a.Stall(100 * time.Millisecond)
			const n = 200
			for i := 1; i < n; i++ {
				a.Send(2, numbered(i))
			}
			a.Close() // drains what the stall held back, then says goodbye
			select {
			case seen := <-seenAtDeparture:
				if seen != n {
					t.Fatalf("departure announced after %d of %d frames", seen, n)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no departure announced")
			}
			if s := a.Stats(); s.FramesSent != n || s.DeparturesSent != 1 || s.FramesLost != 0 {
				t.Fatalf("closed sender: %+v", s)
			}
		}},

		{"Stall holds frames pending between batches and resumes", func(t *testing.T) {
			a, _, _, inB := pair(t)
			a.Send(2, numbered(0))
			inB.wait(t, 1)
			a.Stall(300 * time.Millisecond)
			start := time.Now()
			for i := 1; i <= 5; i++ {
				a.Send(2, numbered(i))
			}
			if s := a.Stats(); s.QueueDepth != 5 || s.FramesSent != 1 {
				t.Fatalf("stalled sender: depth %d, sent %d; want 5 pending", s.QueueDepth, s.FramesSent)
			}
			frames := inB.wait(t, 6)
			if elapsed := time.Since(start); elapsed < 250*time.Millisecond {
				t.Fatalf("frames left %v into a 300ms stall", elapsed)
			}
			for i, f := range frames {
				if !bytes.Equal(f.data, numbered(i)) {
					t.Fatalf("frame %d out of order after the stall", i)
				}
			}
			waitFor(t, time.Second, "counters", func() bool {
				s := a.Stats()
				return s.QueueDepth == 0 && s.FramesSent == 6
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestStalledFrameTimesOut: a peer that announces a frame and sends
// nothing more must cost neither the announced memory nor the reader
// goroutine for ever; a connection that is merely idle must cost no
// deadline at all.
func TestStalledFrameTimesOut(t *testing.T) {
	a := listen(t, Config{Self: 1, WriteTimeout: 300 * time.Millisecond}, nil)
	dial := func(after ...byte) net.Conn {
		nc, err := net.Dial("tcp", a.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		nc.Write(append([]byte{0, 0, 0, 7}, after...)) // handshake as node 7
		return nc
	}
	closedWithin := func(nc net.Conn, d time.Duration) bool {
		nc.SetReadDeadline(time.Now().Add(d))
		_, err := nc.Read(make([]byte, 1))
		ne, timeout := err.(net.Error)
		return err != nil && !(timeout && ne.Timeout())
	}

	idle := dial()
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	stalled := dial(0x00, 0x10, 0x00, 0x00) // a 1 MiB frame, and then silence
	time.Sleep(100 * time.Millisecond)      // the reader is now waiting for the body
	var during runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&during)
	if grown := int64(during.HeapAlloc) - int64(before.HeapAlloc); grown > MaxFrame/2 {
		t.Fatalf("heap grew %d bytes on a bare 1 MiB announcement", grown)
	}
	if !closedWithin(stalled, 2*time.Second) {
		t.Fatal("reader still holds a connection stalled mid-frame")
	}
	if closedWithin(idle, 500*time.Millisecond) {
		t.Fatal("an idle connection was closed: it must carry no deadline")
	}
	// Neither may a connection that never sends its handshake stay.
	mute, err := net.Dial("tcp", a.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	if !closedWithin(mute, 2*time.Second) {
		t.Fatal("reader still holds a connection that never identified itself")
	}
}

// TestFaultDelayOwnsItsFrames: a frame handed to the handler is a view
// into the connection's read buffer. The fault plane's delay and
// duplicate verdicts deliver from timers, long after that buffer has been
// overwritten by the traffic behind them, so they must deliver a copy.
// Run under -race this also catches the read loop writing under a timer
// that reads.
func TestFaultDelayOwnsItsFrames(t *testing.T) {
	inj := faults.New(11)
	if err := inj.Install(faults.LinkRule{Delay: 30 * time.Millisecond, Duplicate: 1}); err != nil {
		t.Fatal(err)
	}
	var intact, damaged atomic.Int64
	b := listen(t, Config{Self: 2, Faults: inj}, func(_ peer.ID, frame []byte) {
		if len(frame) > 4 && crc32.ChecksumIEEE(frame[4:]) == binary.BigEndian.Uint32(frame) {
			intact.Add(1)
		} else {
			damaged.Add(1)
		}
	})
	a := listen(t, Config{Self: 1, Peers: map[peer.ID]string{2: b.Addr().String()}}, nil)
	const n = 600
	for i := 0; i < n; i++ {
		body := []byte(fmt.Sprintf("%d:%s", i, bytes.Repeat([]byte{byte(i)}, 20+i%200)))
		frame := binary.BigEndian.AppendUint32(nil, crc32.ChecksumIEEE(body))
		a.Send(2, append(frame, body...))
		if i%50 == 0 {
			time.Sleep(time.Millisecond) // several reads, so the buffer is reused
		}
	}
	waitFor(t, 10*time.Second, "every late frame, twice", func() bool {
		return intact.Load()+damaged.Load() == 2*n
	})
	if d := damaged.Load(); d != 0 {
		t.Fatalf("%d of %d late frames arrived damaged", d, 2*n)
	}
}

// TestSharedFrames: a frame too large for a chunk is queued once per
// fan-out, as one immutable wire buffer every destination's queue holds.
// Sharing must not change what any peer receives, and the buffer must not
// outlive the fan-out.
func TestSharedFrames(t *testing.T) {
	// fanout starts n receivers and a sender that knows them all as
	// peers 2 … n+1.
	fanout := func(t *testing.T, n int, cfg Config) (*Transport, []*inbox) {
		inboxes := make([]*inbox, n)
		cfg.Self, cfg.Peers = 1, make(map[peer.ID]string)
		for i := range inboxes {
			inboxes[i] = newInbox()
			r := listen(t, Config{Self: peer.ID(2 + i)}, inboxes[i].handle)
			cfg.Peers[peer.ID(2+i)] = r.Addr().String()
		}
		return listen(t, cfg, nil), inboxes
	}
	large := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, 32<<10) }

	t.Run("a rewritten buffer is a new frame", func(t *testing.T) {
		a, inboxes := fanout(t, 3, Config{})
		a.Stall(200 * time.Millisecond) // both fan-outs are pending together
		buf := large(1)
		for p := range inboxes {
			a.Send(peer.ID(2+p), buf)
		}
		copy(buf, large(2)) // same slice, same length, other bytes
		for p := range inboxes {
			a.Send(peer.ID(2+p), buf)
		}
		for p, in := range inboxes {
			got := in.wait(t, 2)
			if !bytes.Equal(got[0].data, large(1)) || !bytes.Equal(got[1].data, large(2)) {
				t.Fatalf("peer %d received frames filled with %d and %d, want 1 and 2",
					2+p, got[0].data[0], got[1].data[0])
			}
		}
	})

	t.Run("a purge on one queue leaves the others' copy intact", func(t *testing.T) {
		a, inboxes := fanout(t, 2, Config{QueueSize: 2})
		a.Stall(200 * time.Millisecond)
		a.Send(2, large(7))
		a.Send(3, large(7))
		for i := 0; i < 2; i++ { // purges the shared frame from peer 2's queue
			a.Send(2, numbered(i))
		}
		if s := a.Stats(); s.LostPurge != 1 || s.QueueDepth != 3 {
			t.Fatalf("after the purge: %+v", s)
		}
		for i, f := range inboxes[0].wait(t, 2) {
			if !bytes.Equal(f.data, numbered(i)) {
				t.Fatalf("peer 2 frame %d is not the one sent", i)
			}
		}
		if got := inboxes[1].wait(t, 1); !bytes.Equal(got[0].data, large(7)) {
			t.Fatal("peer 3's copy of the shared frame was damaged by peer 2's purge")
		}
	})

	t.Run("concurrent fan-outs of equal-length frames stay apart", func(t *testing.T) {
		a, inboxes := fanout(t, 3, Config{})
		const senders, perSender = 4, 25
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perSender; i++ {
					f := large(byte(g*perSender + i))
					for p := range inboxes {
						a.Send(peer.ID(2+p), f)
					}
				}
			}()
		}
		wg.Wait()
		for p, in := range inboxes {
			seen := map[byte]bool{}
			for _, f := range in.wait(t, senders*perSender) {
				if !bytes.Equal(f.data, large(f.data[0])) || seen[f.data[0]] {
					t.Fatalf("peer %d: frame %d damaged or received twice", 2+p, f.data[0])
				}
				seen[f.data[0]] = true
			}
		}
	})

	t.Run("the buffer is released once written", func(t *testing.T) {
		a, inboxes := fanout(t, 3, Config{})
		a.Stall(100 * time.Millisecond) // the memo is still held after the Sends
		for p := range inboxes {
			a.Send(peer.ID(2+p), large(3))
		}
		a.sharedMu.Lock()
		w := weak.Make(&a.shared[0])
		a.sharedMu.Unlock()
		for _, in := range inboxes {
			in.wait(t, 1)
		}
		// The last write loop may still be between its write and its
		// recycle when the frame arrives.
		waitFor(t, 2*time.Second, "the written wire buffer to be collected", func() bool {
			runtime.GC()
			return w.Value() == nil
		})
	})
}
