//go:build !race

// The race detector allocates on its own account, so these pins run only
// without it.

package core

import (
	"encoding/binary"
	"testing"

	"emcast/internal/ids"
	"emcast/internal/msg"
	"emcast/internal/peer"
	"emcast/internal/peertest"
	"emcast/internal/strategy"
)

// discard is a transport that drops every frame.
type discard struct{ self peer.ID }

func (d discard) Send(peer.ID, []byte) {}
func (d discard) Local() peer.ID       { return d.self }

// firstReceiptAllocs returns the allocations of one HandleFrame of a
// 256 B MSG frame carrying an id the node has not seen, on a node with a
// deliver upcall, no payload store and a full fan-out of 11 relays under
// strat. Every run encodes a fresh id into one reused frame buffer, so
// each is a first receipt that delivers and relays.
func firstReceiptAllocs(t *testing.T, strat strategy.Strategy) float64 {
	t.Helper()
	clock := peertest.NewSim()
	var delivered int
	node := NewNode(DefaultConfig(), &peer.Env{Transport: discard{1}, Clock: clock, Timers: clock},
		Options{Strategy: strat, Deliver: func(_ ids.ID, payload []byte) { delivered += len(payload) }})
	others := make([]peer.ID, 0, 20)
	for p := peer.ID(2); p < 22; p++ {
		others = append(others, p)
	}
	node.SeedView(others)

	payload := make([]byte, 256)
	var frame []byte
	var seq uint64
	const runs = 1000
	n := testing.AllocsPerRun(runs, func() {
		seq++
		var id ids.ID
		binary.BigEndian.PutUint64(id[:], seq)
		frame = (&msg.Msg{ID: id, Round: 1, Payload: payload}).Encode(frame[:0])
		node.HandleFrame(2, frame)
	})
	if delivered != (runs+1)*len(payload) {
		t.Fatalf("delivered %d bytes, want %d: not every run was a first receipt", delivered, (runs+1)*len(payload))
	}
	return n
}

// TestEagerReceiptAllocs pins the eager path at zero allocations per
// first receipt: the payload goes from the frame to the deliver upcall
// and into 11 eager pushes as a view. A copy on receipt, kept or handed
// to the upcall, reads 1 or more.
func TestEagerReceiptAllocs(t *testing.T) {
	if n := firstReceiptAllocs(t, &strategy.Flat{P: 1}); n != 0 {
		t.Fatalf("first receipt relayed eagerly: %v allocations, want 0", n)
	}
}

// TestLazyRelayAllocs pins a lazily relayed first receipt at one
// allocation: the payload cache's copy, made once for all 11
// advertisements. A copy per advertised peer reads 11.
func TestLazyRelayAllocs(t *testing.T) {
	if n := firstReceiptAllocs(t, &strategy.Flat{P: 0}); n > 1 {
		t.Fatalf("first receipt relayed lazily: %v allocations, want at most 1", n)
	}
}
