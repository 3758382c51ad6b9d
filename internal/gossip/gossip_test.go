package gossip

import (
	"testing"
	"time"

	"emcast/internal/ids"
	"emcast/internal/peer"
	"emcast/internal/trace"
)

// sent records one L-Send call.
type sent struct {
	id    ids.ID
	round int
	to    peer.ID
}

// recorder implements Sender and Sampler with scripted peers.
type recorder struct {
	peers []peer.ID
	sends []sent
}

func (r *recorder) Sample(f int) []peer.ID {
	if f > len(r.peers) {
		f = len(r.peers)
	}
	return r.peers[:f]
}

func (r *recorder) LSend(id ids.ID, payload []byte, round int, to peer.ID) {
	r.sends = append(r.sends, sent{id: id, round: round, to: to})
}

func (r *recorder) Keep(id ids.ID, payload []byte) []byte {
	return append([]byte(nil), payload...)
}

type zeroClock struct{}

func (zeroClock) Now() time.Duration { return 0 }

var _ peer.Clock = zeroClock{}

func newGossipStd(t *testing.T, cfg Config, rec *recorder, deliver DeliverFunc) *Gossip {
	t.Helper()
	return New(cfg, 1, ids.NewGenerator(1), rec, rec, deliver, zeroClock{}, trace.NewStreaming())
}

func TestMulticastDeliversLocallyAndRelays(t *testing.T) {
	rec := &recorder{peers: []peer.ID{2, 3, 4, 5, 6}}
	var delivered [][]byte
	g := newGossipStd(t, Config{Fanout: 3, MaxRounds: 5}, rec, func(id ids.ID, d []byte) {
		delivered = append(delivered, d)
	})
	id := g.Multicast([]byte("hello"))
	if len(delivered) != 1 || string(delivered[0]) != "hello" {
		t.Fatalf("local delivery = %v", delivered)
	}
	if len(rec.sends) != 3 {
		t.Fatalf("relays = %d, want fanout 3", len(rec.sends))
	}
	for _, s := range rec.sends {
		if s.id != id {
			t.Fatal("relayed wrong id")
		}
		if s.round != 1 {
			t.Fatalf("initial relay round = %d, want 1 (Fig. 2 sends r+1)", s.round)
		}
	}
	if !g.Own(id) {
		t.Fatal("multicast id not recorded as own")
	}
}

func TestLReceiveForwardsWithIncrementedRound(t *testing.T) {
	rec := &recorder{peers: []peer.ID{2, 3}}
	g := newGossipStd(t, Config{Fanout: 2, MaxRounds: 5}, rec, nil)
	var id ids.ID
	id[0] = 9
	g.LReceive(id, []byte("x"), 3, 7)
	if len(rec.sends) != 2 {
		t.Fatalf("relays = %d, want 2", len(rec.sends))
	}
	for _, s := range rec.sends {
		if s.round != 4 {
			t.Fatalf("relay round = %d, want received+1 = 4", s.round)
		}
	}
}

// TestOwnEchoNotForwarded: the payload scheduler hands up every first
// receipt, including this node's own multicast echoed back by a
// neighbour; the own set is what stops it (duplicates of foreign ids
// never get here — internal/core pins that).
func TestOwnEchoNotForwarded(t *testing.T) {
	rec := &recorder{peers: []peer.ID{2, 3}}
	deliveries := 0
	g := newGossipStd(t, Config{Fanout: 2, MaxRounds: 5}, rec, func(ids.ID, []byte) { deliveries++ })
	id := g.Multicast([]byte("x"))
	g.LReceive(id, []byte("x"), 1, 7)
	if deliveries != 1 {
		t.Fatalf("deliveries = %d, want 1 (own echo re-delivered)", deliveries)
	}
	if len(rec.sends) != 2 {
		t.Fatalf("relays = %d, want 2 (own echo re-forwarded)", len(rec.sends))
	}
}

// TestFootprintIsOwnIDsOnly: a node that never multicasts retains nothing
// in this layer, however much it receives; each own multicast costs one
// table slot and one FIFO slot.
func TestFootprintIsOwnIDsOnly(t *testing.T) {
	rec := &recorder{peers: []peer.ID{2}}
	g := newGossipStd(t, Config{Fanout: 1, MaxRounds: 2}, rec, nil)
	for i := 1; i <= 100; i++ {
		g.LReceive(ids.ID{byte(i)}, []byte("x"), 1, 7)
	}
	if fp := g.Footprint(); fp.Bytes != 0 || fp.Items != 0 {
		t.Fatalf("footprint after 100 receipts = %+v, want empty", fp)
	}
	g.Multicast([]byte("a"))
	g.Multicast([]byte("b"))
	// First Add allocates the minimum 8-slot table; the order slice's
	// capacity after two appends is 2.
	want := int64(8*ids.IDSize + 2*ids.IDSize)
	if fp := g.Footprint(); fp.Bytes != want || fp.Items != 2 {
		t.Fatalf("footprint after 2 multicasts = %+v, want %d bytes / 2 items", fp, want)
	}
}

func TestMaxRoundsStopsRelaying(t *testing.T) {
	rec := &recorder{peers: []peer.ID{2, 3}}
	deliveries := 0
	g := newGossipStd(t, Config{Fanout: 2, MaxRounds: 3}, rec, func(ids.ID, []byte) { deliveries++ })
	var id ids.ID
	id[0] = 1
	// Received at the round limit: delivered but not relayed.
	g.LReceive(id, []byte("x"), 3, 7)
	if len(rec.sends) != 0 {
		t.Fatalf("relays at r=t: %d, want 0", len(rec.sends))
	}
	if deliveries != 1 {
		t.Fatal("message at round limit not delivered")
	}
	var id2 ids.ID
	id2[0] = 2
	g.LReceive(id2, []byte("x"), 2, 7)
	if len(rec.sends) != 2 {
		t.Fatalf("relays at r<t: %d, want 2", len(rec.sends))
	}
}

func TestSmallViewLimitsFanout(t *testing.T) {
	rec := &recorder{peers: []peer.ID{2}}
	g := newGossipStd(t, Config{Fanout: 11, MaxRounds: 3}, rec, nil)
	g.Multicast([]byte("x"))
	if len(rec.sends) != 1 {
		t.Fatalf("relays = %d, want 1 (view smaller than fanout)", len(rec.sends))
	}
}

func TestDistinctMulticastsGetDistinctIDs(t *testing.T) {
	rec := &recorder{peers: []peer.ID{2}}
	g := newGossipStd(t, Config{Fanout: 1, MaxRounds: 2}, rec, nil)
	a := g.Multicast([]byte("a"))
	b := g.Multicast([]byte("b"))
	if a == b {
		t.Fatal("two multicasts shared an id")
	}
	if !g.Own(a) || !g.Own(b) {
		t.Fatal("own multicast ids not recorded")
	}
}

func TestDefaultsFilled(t *testing.T) {
	rec := &recorder{peers: []peer.ID{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}}
	g := newGossipStd(t, Config{}, rec, nil)
	g.Multicast([]byte("x"))
	if len(rec.sends) != 11 {
		t.Fatalf("default fanout sends = %d, want the paper's 11", len(rec.sends))
	}
}
