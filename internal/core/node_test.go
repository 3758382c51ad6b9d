package core

import (
	"testing"
	"time"

	"emcast/internal/ids"
	"emcast/internal/monitor"
	"emcast/internal/msg"
	"emcast/internal/peer"
	"emcast/internal/ranking"
	"emcast/internal/strategy"
	"emcast/internal/trace"
)

// harness wires N core nodes over a testNet: a miniature deterministic
// deployment for protocol-level tests.
type harness struct {
	*testNet
	nodes map[peer.ID]*Node
}

func newHarness(t *testing.T, n int, cfg Config, strat func(self peer.ID) strategy.Strategy) *harness {
	t.Helper()
	h := &harness{
		testNet: newTestNet(),
		nodes:   make(map[peer.ID]*Node, n),
	}
	for i := 0; i < n; i++ {
		self := peer.ID(i)
		nodeCfg := cfg
		nodeCfg.Seed = int64(i + 1)
		node := NewNode(nodeCfg, h.env(self), Options{Strategy: strat(self)})
		h.nodes[self] = node
		h.attach(node)
	}
	// Full mesh views.
	for self, node := range h.nodes {
		var ps []peer.ID
		for other := range h.nodes {
			if other != self {
				ps = append(ps, other)
			}
		}
		node.SeedView(ps)
	}
	return h
}

func eagerStrategy(peer.ID) strategy.Strategy { return &strategy.Flat{P: 1} }
func lazyStrategy(peer.ID) strategy.Strategy  { return &strategy.Flat{P: 0} }

func TestMulticastReachesAllEager(t *testing.T) {
	h := newHarness(t, 8, DefaultConfig(), eagerStrategy)
	id := h.nodes[0].Multicast([]byte("m"))
	h.advance(0)
	for nid, n := range h.nodes {
		if !n.Delivered(id) {
			t.Fatalf("node %d did not deliver", nid)
		}
	}
}

func TestMulticastReachesAllLazy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lazy.RequestPeriod = 50 * time.Millisecond
	h := newHarness(t, 8, cfg, lazyStrategy)
	id := h.nodes[0].Multicast([]byte("m"))
	h.advance(5 * time.Second) // fire request timers
	for nid, n := range h.nodes {
		if !n.Delivered(id) {
			t.Fatalf("node %d did not deliver via lazy pull", nid)
		}
		if n.PendingRequests() != 0 {
			t.Fatalf("node %d still has pending requests", nid)
		}
	}
}

// TestMulticastOwnsPayload: the caller may reuse its buffer once Multicast
// returns. A lazy multicast answers IWANTs from its payload cache long
// after the call, so the cache must hold the payload, not the caller's
// buffer.
func TestMulticastOwnsPayload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ShufflePeriod = 0
	h := newHarness(t, 4, cfg, lazyStrategy)
	buf := []byte("original")
	id := h.nodes[0].Multicast(buf)
	copy(buf, "mutated!")
	h.advance(time.Second)
	served := 0
	for _, fr := range h.sent {
		var p msg.Parsed
		if err := p.Decode(fr.data); err != nil || p.Kind != msg.KindMsg || fr.from != 0 || p.ID != id {
			continue
		}
		served++
		if string(p.Payload) != "original" {
			t.Fatalf("MSG 0→%d carries %q, want %q", fr.to, p.Payload, "original")
		}
	}
	if served == 0 {
		t.Fatal("node 0 served no payload")
	}
}

// TestRelayOwnsPayload: node 1 receives a payload in a frame from node 0
// and advertises it lazily; the network recycles that frame's buffer for
// the frames of node 0's next multicasts. Node 1 must still serve the
// payload it received, so it must have kept a copy, not the frame.
func TestRelayOwnsPayload(t *testing.T) {
	net := newTestNet()
	cfg := DefaultConfig()
	cfg.ShufflePeriod = 0
	src := NewNode(cfg, net.env(0), Options{Strategy: &strategy.Flat{P: 1}})
	relay := NewNode(cfg, net.env(1), Options{Strategy: &strategy.Flat{P: 0}})
	net.attach(src)
	net.attach(relay)
	src.SeedView([]peer.ID{1})
	relay.SeedView([]peer.ID{2})
	id := src.Multicast([]byte("relayed"))
	net.advance(0)
	for i := 0; i < 4; i++ {
		src.Multicast([]byte("garbage"))
	}
	net.advance(0)
	net.sent = nil
	relay.HandleFrame(2, (&msg.IWant{ID: id}).Encode(nil))
	var p msg.Parsed
	if len(net.sent) != 1 || p.Decode(net.sent[0].data) != nil || p.Kind != msg.KindMsg || p.ID != id {
		t.Fatalf("relay answered the IWANT with %d frames, want one MSG", len(net.sent))
	}
	if string(p.Payload) != "relayed" {
		t.Fatalf("relay served %q, want %q", p.Payload, "relayed")
	}
}

func TestMalformedFrameIgnored(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig(), eagerStrategy)
	h.nodes[0].HandleFrame(1, []byte{0xFF, 0x00, 0x01}) // garbage
	h.nodes[0].HandleFrame(1, nil)
	// Node must still work.
	id := h.nodes[0].Multicast([]byte("ok"))
	h.advance(0)
	if !h.nodes[1].Delivered(id) {
		t.Fatal("node broken by malformed frame")
	}
}

func TestPingPongFeedsEWMA(t *testing.T) {
	net := newTestNet()
	ewma := monitor.NewEWMA(0.5)

	cfg := DefaultConfig()
	cfg.ShufflePeriod = 0

	a := NewNode(cfg, net.env(1), Options{Strategy: &strategy.Flat{P: 1}, EWMA: ewma})
	net.attach(a)
	b := NewNode(cfg, net.env(2), Options{Strategy: &strategy.Flat{P: 1}})
	net.attach(b)

	a.SeedView([]peer.ID{2})
	b.SeedView([]peer.ID{1})
	a.Start()
	// Pongs arrive at once on a zero-latency network, so the smoothed
	// one-way estimate must become known and stay below 5ms.
	net.advance(time.Second)
	if ewma.Known() != 1 {
		t.Fatalf("EWMA knows %d peers after pinging, want 1", ewma.Known())
	}
	if m := ewma.Metric(2); m < 0 || m >= 5 {
		t.Fatalf("metric = %v, want within [0, 5ms) on a zero-latency network", m)
	}
	a.Stop()
}

func TestPongFromWrongPeerIgnored(t *testing.T) {
	net := newTestNet()
	ewma := monitor.NewEWMA(0.5)

	cfg := DefaultConfig()
	cfg.ShufflePeriod = 0
	n := NewNode(cfg, net.env(1), Options{Strategy: &strategy.Flat{P: 1}, EWMA: ewma})
	net.attach(n)
	n.SeedView([]peer.ID{2}) // pings go to 2, which never answers
	n.Start()
	net.advance(time.Second) // at least one 500 ms (±25 %) probe
	// A third party forges pongs with plausible nonces.
	for nonce := uint64(1); nonce < 10; nonce++ {
		n.HandleFrame(3, (&msg.Pong{Nonce: nonce}).Encode(nil))
	}
	if ewma.Known() != 0 {
		t.Fatal("forged pong accepted")
	}
	n.Stop()
}

func TestShuffleExchangesViews(t *testing.T) {
	net := newTestNet()
	cfg := DefaultConfig()
	cfg.ShufflePeriod = 100 * time.Millisecond
	cfg.Membership.ViewSize = 4
	cfg.Membership.ShuffleSize = 3

	mk := func(self peer.ID) *Node {
		n := NewNode(cfg, net.env(self), Options{Strategy: &strategy.Flat{P: 1}})
		net.attach(n)
		return n
	}
	a, b := mk(1), mk(2)
	// a knows only b; b knows only distant peers that a has never seen.
	a.SeedView([]peer.ID{2})
	b.SeedView([]peer.ID{1, 30, 31, 32})
	a.Start()
	b.Start()
	net.advance(2 * time.Second)
	// Through shuffles a must have learned at least one of b's peers.
	learned := false
	for _, p := range a.View() {
		if p >= 30 {
			learned = true
		}
	}
	if !learned {
		t.Fatalf("a's view after shuffles = %v, learned nothing", a.View())
	}
	a.Stop()
	b.Stop()
}

func TestJoinBootstrapsView(t *testing.T) {
	net := newTestNet()
	cfg := DefaultConfig()
	cfg.ShufflePeriod = 0

	mk := func(self peer.ID) *Node {
		n := NewNode(cfg, net.env(self), Options{Strategy: &strategy.Flat{P: 1}})
		net.attach(n)
		return n
	}
	contact := mk(1)
	contact.SeedView([]peer.ID{10, 11, 12})
	newcomer := mk(2)
	newcomer.Join(1)
	net.advance(0)
	view := newcomer.View()
	if len(view) < 2 {
		t.Fatalf("joiner view = %v, want contact's sample", view)
	}
	// The contact must now know the newcomer.
	knows := false
	for _, p := range contact.View() {
		if p == 2 {
			knows = true
		}
	}
	if !knows {
		t.Fatal("contact did not learn the joiner")
	}
}

func TestStopCancelsPeriodicWork(t *testing.T) {
	net := newTestNet()
	cfg := DefaultConfig()
	cfg.ShufflePeriod = 100 * time.Millisecond
	n := NewNode(cfg, net.env(1), Options{Strategy: &strategy.Flat{P: 1}})
	net.attach(n)
	n.SeedView([]peer.ID{2})
	n.Start()
	n.Stop()
	net.sent = nil
	net.advance(5 * time.Second)
	if len(net.sent) != 0 {
		t.Fatalf("stopped node sent %d frames", len(net.sent))
	}
}

func TestDeliverCallback(t *testing.T) {
	net := newTestNet()
	var got []string
	n := NewNode(DefaultConfig(), net.env(1), Options{
		Strategy: &strategy.Flat{P: 1},
		Deliver:  func(id ids.ID, payload []byte) { got = append(got, string(payload)) },
	})
	net.attach(n)
	n.Multicast([]byte("one"))
	frame := (&msg.Msg{ID: ids.ID{9}, Round: 1, Payload: []byte("two")}).Encode(nil)
	n.HandleFrame(5, frame)
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("deliveries = %v", got)
	}
}

func TestRankGossipSpreadsScores(t *testing.T) {
	net := newTestNet()
	cfg := DefaultConfig()
	cfg.ShufflePeriod = 0

	const n = 4
	nodes := make([]*Node, n)
	tables := make([]*ranking.Table, n)
	for i := 0; i < n; i++ {
		self := peer.ID(i)
		tables[i] = ranking.NewTable(ranking.Config{Fraction: 0.25}, self)
		nodes[i] = NewNode(cfg, net.env(self), Options{
			Strategy: &strategy.Flat{P: 1},
			EWMA:     monitor.NewEWMA(0.5),
			Ranking:  tables[i],
		})
		net.attach(nodes[i])
	}
	for i, node := range nodes {
		var ps []peer.ID
		for j := 0; j < n; j++ {
			if j != i {
				ps = append(ps, peer.ID(j))
			}
		}
		node.SeedView(ps)
		node.Start()
	}
	net.advance(4 * time.Second)
	for i, tab := range tables {
		if tab.Known() < 2 {
			t.Fatalf("node %d ranking table knows only %d scores", i, tab.Known())
		}
	}
	for _, node := range nodes {
		if node.Ranking() == nil {
			t.Fatal("Ranking() accessor broken")
		}
		node.Stop()
	}
}

func TestRequiresStrategy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewNode without strategy did not panic")
		}
	}()
	NewNode(DefaultConfig(), newTestNet().env(1), Options{})
}

// dedupTracer counts the two events that tell the layers apart: the lazy
// module reports every duplicate payload, the gossip layer every delivery.
type dedupTracer struct {
	trace.Nop
	delivered, duplicates int
}

func (d *dedupTracer) Delivered(peer.ID, ids.ID, time.Duration) { d.delivered++ }
func (d *dedupTracer) DuplicatePayload(peer.ID, ids.ID)         { d.duplicates++ }

// soloNode is one node (id 1) on a testNet with neighbours 2 and 3, which
// are not attached and never answer: the net's log holds every frame the
// node sends.
func soloNode(t *testing.T, strat strategy.Strategy) (*Node, *testNet, *dedupTracer, *int) {
	t.Helper()
	net := newTestNet()
	tr, delivered := &dedupTracer{}, new(int)
	cfg := DefaultConfig()
	cfg.ShufflePeriod = 0
	cfg.Gossip.Fanout = 2
	n := NewNode(cfg, net.env(1), Options{
		Strategy: strat,
		Tracer:   tr,
		Deliver:  func(ids.ID, []byte) { *delivered++ },
	})
	n.SeedView([]peer.ID{2, 3})
	return n, net, tr, delivered
}

// TestDuplicatesNotForwarded: the node keeps one dedup table per message
// id — the lazy module's received set. A duplicate MSG stops there: it is
// neither delivered nor relayed, and the gossip layer never sees it.
func TestDuplicatesNotForwarded(t *testing.T) {
	n, net, tr, delivered := soloNode(t, &strategy.Flat{P: 1})
	id := ids.ID{9}
	n.HandleFrame(7, (&msg.Msg{ID: id, Round: 1, Payload: []byte("x")}).Encode(nil))
	n.HandleFrame(8, (&msg.Msg{ID: id, Round: 2, Payload: []byte("x")}).Encode(nil))
	n.HandleFrame(9, (&msg.Msg{ID: id, Round: 1, Payload: []byte("x")}).Encode(nil))
	if *delivered != 1 || tr.delivered != 1 {
		t.Fatalf("deliveries = %d (traced %d), want 1", *delivered, tr.delivered)
	}
	if tr.duplicates != 2 {
		t.Fatalf("duplicates stopped in lazy = %d, want 2", tr.duplicates)
	}
	if got := len(net.sent); got != 2 {
		t.Fatalf("relays = %d, want 2 (only the first receipt forwards)", got)
	}
	if !n.Delivered(id) {
		t.Fatal("Delivered(id) = false after receipt")
	}
}

// TestOwnMulticastEchoedBack: a neighbour relaying the node's own message
// back to it must not cause a second delivery or a second relay round,
// and the node reports its own message delivered although its payload was
// never received.
func TestOwnMulticastEchoedBack(t *testing.T) {
	n, net, tr, delivered := soloNode(t, &strategy.Flat{P: 1})
	id := n.Multicast([]byte("mine"))
	if !n.Delivered(id) {
		t.Fatal("own multicast not reported delivered")
	}
	sent := len(net.sent)
	echo := (&msg.Msg{ID: id, Round: 2, Payload: []byte("mine")}).Encode(nil)
	n.HandleFrame(2, echo)
	n.HandleFrame(3, echo)
	if *delivered != 1 || tr.delivered != 1 {
		t.Fatalf("deliveries = %d (traced %d), want 1", *delivered, tr.delivered)
	}
	if got := len(net.sent); got != sent {
		t.Fatalf("echo caused %d extra frames", got-sent)
	}
	// The first echo is a first receipt for the lazy module (R does not
	// hold own ids); the second is a duplicate there.
	if tr.duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", tr.duplicates)
	}
}

// TestIHaveForOwnIDRequestsIt pins a decision inherited from the two-table
// design: R does not hold own ids, so a neighbour advertising the node's
// own message back gets an IWANT for it, as before.
func TestIHaveForOwnIDRequestsIt(t *testing.T) {
	n, net, _, _ := soloNode(t, &strategy.Flat{P: 0})
	id := n.Multicast([]byte("mine"))
	net.sent = nil
	n.HandleFrame(2, (&msg.IHave{ID: id}).Encode(nil))
	// Flat's first-request delay is zero: the request timer is due at once.
	net.advance(time.Millisecond)
	log := net.sent
	if len(log) != 1 {
		t.Fatalf("%d frames after IHAVE for own id, want 1 IWANT", len(log))
	}
	var p msg.Parsed
	if err := p.Decode(log[0].data); err != nil || p.Kind != msg.KindIWant || p.ID != id || log[0].to != 2 {
		t.Fatalf("frame after IHAVE for own id = %+v (err %v), want IWANT to 2", log[0], err)
	}
}
