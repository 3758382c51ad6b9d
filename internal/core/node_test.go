package core

import (
	"testing"
	"time"

	"emcast/internal/ids"
	"emcast/internal/monitor"
	"emcast/internal/msg"
	"emcast/internal/peer"
	"emcast/internal/peertest"
	"emcast/internal/ranking"
	"emcast/internal/strategy"
	"emcast/internal/trace"
)

// harness wires N core nodes over a peertest mesh and a shared manual
// clock: a miniature deterministic deployment for protocol-level tests.
type harness struct {
	sim   *peertest.Sim
	mesh  *peertest.Mesh
	nodes map[peer.ID]*Node
}

func newHarness(t *testing.T, n int, cfg Config, strat func(self peer.ID) strategy.Strategy) *harness {
	t.Helper()
	h := &harness{
		sim:   peertest.NewSim(),
		mesh:  peertest.NewMesh(),
		nodes: make(map[peer.ID]*Node, n),
	}
	for i := 0; i < n; i++ {
		self := peer.ID(i)
		env := &peer.Env{
			Transport: h.mesh.Endpoint(self, nil),
			Clock:     h.sim,
			Timers:    h.sim,
		}
		nodeCfg := cfg
		nodeCfg.Seed = int64(i + 1)
		node := NewNode(nodeCfg, env, Options{Strategy: strat(self)})
		h.nodes[self] = node
		h.mesh.SetHandler(self, node.HandleFrame)
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

// advance moves the clock forward in small steps, draining the mesh after
// each step so timer-driven traffic flows like it would on a real network.
func (h *harness) advance(d time.Duration) {
	const step = 10 * time.Millisecond
	for elapsed := time.Duration(0); elapsed < d; elapsed += step {
		h.sim.Advance(step)
		h.mesh.Drain()
	}
}

func eagerStrategy(peer.ID) strategy.Strategy { return &strategy.Flat{P: 1} }
func lazyStrategy(peer.ID) strategy.Strategy  { return &strategy.Flat{P: 0} }

func TestMulticastReachesAllEager(t *testing.T) {
	h := newHarness(t, 8, DefaultConfig(), eagerStrategy)
	id := h.nodes[0].Multicast([]byte("m"))
	h.mesh.Drain()
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
	h.mesh.Drain()
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
	h.mesh.Drain()
	h.advance(time.Second)
	served := 0
	for _, fr := range h.mesh.Log() {
		var p msg.Parsed
		if err := p.Decode(fr.Data); err != nil || p.Kind != msg.KindMsg || fr.From != 0 || p.ID != id {
			continue
		}
		served++
		if string(p.Payload) != "original" {
			t.Fatalf("MSG 0→%d carries %q, want %q", fr.To, p.Payload, "original")
		}
	}
	if served == 0 {
		t.Fatal("node 0 served no payload")
	}
}

func TestMalformedFrameIgnored(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig(), eagerStrategy)
	h.nodes[0].HandleFrame(1, []byte{0xFF, 0x00, 0x01}) // garbage
	h.nodes[0].HandleFrame(1, nil)
	// Node must still work.
	id := h.nodes[0].Multicast([]byte("ok"))
	h.mesh.Drain()
	if !h.nodes[1].Delivered(id) {
		t.Fatal("node broken by malformed frame")
	}
}

func TestPingPongFeedsEWMA(t *testing.T) {
	sim := peertest.NewSim()
	mesh := peertest.NewMesh()
	ewma := monitor.NewEWMA(0.5)

	cfg := DefaultConfig()
	cfg.ShufflePeriod = 0

	envA := &peer.Env{Transport: mesh.Endpoint(1, nil), Clock: sim, Timers: sim}
	a := NewNode(cfg, envA, Options{Strategy: &strategy.Flat{P: 1}, EWMA: ewma})
	mesh.SetHandler(1, a.HandleFrame)

	envB := &peer.Env{Transport: mesh.Endpoint(2, nil), Clock: sim, Timers: sim}
	b := NewNode(cfg, envB, Options{Strategy: &strategy.Flat{P: 1}})
	mesh.SetHandler(2, b.HandleFrame)

	a.SeedView([]peer.ID{2})
	b.SeedView([]peer.ID{1})
	a.Start()
	// Pongs arrive within one 10ms drain step, so the smoothed one-way
	// estimate must become known and stay below 5ms.
	for i := 0; i < 100; i++ {
		sim.Advance(10 * time.Millisecond)
		mesh.Drain()
	}
	if ewma.Known() != 1 {
		t.Fatalf("EWMA knows %d peers after pinging, want 1", ewma.Known())
	}
	if m := ewma.Metric(2); m < 0 || m >= 5 {
		t.Fatalf("metric = %v, want within [0, 5ms) on a drain-step mesh", m)
	}
	a.Stop()
}

func TestPongFromWrongPeerIgnored(t *testing.T) {
	sim := peertest.NewSim()
	mesh := peertest.NewMesh()
	ewma := monitor.NewEWMA(0.5)

	cfg := DefaultConfig()
	cfg.ShufflePeriod = 0
	env := &peer.Env{Transport: mesh.Endpoint(1, nil), Clock: sim, Timers: sim}
	n := NewNode(cfg, env, Options{Strategy: &strategy.Flat{P: 1}, EWMA: ewma})
	mesh.SetHandler(1, n.HandleFrame)
	n.SeedView([]peer.ID{2}) // pings go to 2, which never answers
	n.Start()
	sim.Advance(time.Second) // at least one 500 ms (±25 %) probe
	mesh.Drain()
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
	sim := peertest.NewSim()
	mesh := peertest.NewMesh()
	cfg := DefaultConfig()
	cfg.ShufflePeriod = 100 * time.Millisecond
	cfg.Membership.ViewSize = 4
	cfg.Membership.ShuffleSize = 3

	mk := func(self peer.ID) *Node {
		env := &peer.Env{Transport: mesh.Endpoint(self, nil), Clock: sim, Timers: sim}
		n := NewNode(cfg, env, Options{Strategy: &strategy.Flat{P: 1}})
		mesh.SetHandler(self, n.HandleFrame)
		return n
	}
	a, b := mk(1), mk(2)
	// a knows only b; b knows only distant peers that a has never seen.
	a.SeedView([]peer.ID{2})
	b.SeedView([]peer.ID{1, 30, 31, 32})
	a.Start()
	b.Start()
	for i := 0; i < 200; i++ {
		sim.Advance(10 * time.Millisecond)
		mesh.Drain()
	}
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
	sim := peertest.NewSim()
	mesh := peertest.NewMesh()
	cfg := DefaultConfig()
	cfg.ShufflePeriod = 0

	mk := func(self peer.ID) *Node {
		env := &peer.Env{Transport: mesh.Endpoint(self, nil), Clock: sim, Timers: sim}
		n := NewNode(cfg, env, Options{Strategy: &strategy.Flat{P: 1}})
		mesh.SetHandler(self, n.HandleFrame)
		return n
	}
	contact := mk(1)
	contact.SeedView([]peer.ID{10, 11, 12})
	newcomer := mk(2)
	newcomer.Join(1)
	mesh.Drain()
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
	sim := peertest.NewSim()
	mesh := peertest.NewMesh()
	cfg := DefaultConfig()
	cfg.ShufflePeriod = 100 * time.Millisecond
	env := &peer.Env{Transport: mesh.Endpoint(1, nil), Clock: sim, Timers: sim}
	n := NewNode(cfg, env, Options{Strategy: &strategy.Flat{P: 1}})
	mesh.SetHandler(1, n.HandleFrame)
	n.SeedView([]peer.ID{2})
	n.Start()
	n.Stop()
	mesh.Reset()
	sim.Advance(5 * time.Second)
	mesh.Drain()
	if frames := mesh.Log(); len(frames) != 0 {
		t.Fatalf("stopped node sent %d frames", len(frames))
	}
}

func TestDeliverCallback(t *testing.T) {
	sim := peertest.NewSim()
	mesh := peertest.NewMesh()
	var got []string
	env := &peer.Env{Transport: mesh.Endpoint(1, nil), Clock: sim, Timers: sim}
	n := NewNode(DefaultConfig(), env, Options{
		Strategy: &strategy.Flat{P: 1},
		Deliver:  func(id ids.ID, payload []byte) { got = append(got, string(payload)) },
	})
	mesh.SetHandler(1, n.HandleFrame)
	n.Multicast([]byte("one"))
	frame := (&msg.Msg{ID: ids.ID{9}, Round: 1, Payload: []byte("two")}).Encode(nil)
	n.HandleFrame(5, frame)
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("deliveries = %v", got)
	}
}

func TestRankGossipSpreadsScores(t *testing.T) {
	sim := peertest.NewSim()
	mesh := peertest.NewMesh()
	cfg := DefaultConfig()
	cfg.ShufflePeriod = 0

	const n = 4
	nodes := make([]*Node, n)
	tables := make([]*ranking.Table, n)
	for i := 0; i < n; i++ {
		self := peer.ID(i)
		env := &peer.Env{Transport: mesh.Endpoint(self, nil), Clock: sim, Timers: sim}
		tables[i] = ranking.NewTable(ranking.Config{Fraction: 0.25}, self)
		nodes[i] = NewNode(cfg, env, Options{
			Strategy: &strategy.Flat{P: 1},
			EWMA:     monitor.NewEWMA(0.5),
			Ranking:  tables[i],
		})
		mesh.SetHandler(self, nodes[i].HandleFrame)
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
	for i := 0; i < 400; i++ {
		sim.Advance(10 * time.Millisecond)
		mesh.Drain()
	}
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
	sim := peertest.NewSim()
	mesh := peertest.NewMesh()
	env := &peer.Env{Transport: mesh.Endpoint(1, nil), Clock: sim, Timers: sim}
	NewNode(DefaultConfig(), env, Options{})
}

// dedupTracer counts the two events that tell the layers apart: the lazy
// module reports every duplicate payload, the gossip layer every delivery.
type dedupTracer struct {
	trace.Nop
	delivered, duplicates int
}

func (d *dedupTracer) Delivered(peer.ID, ids.ID, time.Duration) { d.delivered++ }
func (d *dedupTracer) DuplicatePayload(peer.ID, ids.ID)         { d.duplicates++ }

// soloNode is one node (id 1) on a recording mesh with neighbours 2 and 3,
// which never answer: every frame the node sends stays in the mesh log.
func soloNode(t *testing.T, strat strategy.Strategy) (*Node, *peertest.Mesh, *dedupTracer, *int) {
	t.Helper()
	sim, mesh := peertest.NewSim(), peertest.NewMesh()
	tr, delivered := &dedupTracer{}, new(int)
	cfg := DefaultConfig()
	cfg.ShufflePeriod = 0
	cfg.Gossip.Fanout = 2
	env := &peer.Env{Transport: mesh.Endpoint(1, nil), Clock: sim, Timers: sim}
	n := NewNode(cfg, env, Options{
		Strategy: strat,
		Tracer:   tr,
		Deliver:  func(ids.ID, []byte) { *delivered++ },
	})
	n.SeedView([]peer.ID{2, 3})
	return n, mesh, tr, delivered
}

// TestDuplicatesNotForwarded: the node keeps one dedup table per message
// id — the lazy module's received set. A duplicate MSG stops there: it is
// neither delivered nor relayed, and the gossip layer never sees it.
func TestDuplicatesNotForwarded(t *testing.T) {
	n, mesh, tr, delivered := soloNode(t, &strategy.Flat{P: 1})
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
	if got := len(mesh.Log()); got != 2 {
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
	n, mesh, tr, delivered := soloNode(t, &strategy.Flat{P: 1})
	id := n.Multicast([]byte("mine"))
	if !n.Delivered(id) {
		t.Fatal("own multicast not reported delivered")
	}
	sent := len(mesh.Log())
	echo := (&msg.Msg{ID: id, Round: 2, Payload: []byte("mine")}).Encode(nil)
	n.HandleFrame(2, echo)
	n.HandleFrame(3, echo)
	if *delivered != 1 || tr.delivered != 1 {
		t.Fatalf("deliveries = %d (traced %d), want 1", *delivered, tr.delivered)
	}
	if got := len(mesh.Log()); got != sent {
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
	n, mesh, _, _ := soloNode(t, &strategy.Flat{P: 0})
	id := n.Multicast([]byte("mine"))
	mesh.Reset()
	n.HandleFrame(2, (&msg.IHave{ID: id}).Encode(nil))
	// Flat's first-request delay is zero: the request timer is due at once.
	n.env.Timers.(*peertest.Sim).Advance(time.Millisecond)
	log := mesh.Log()
	if len(log) != 1 {
		t.Fatalf("%d frames after IHAVE for own id, want 1 IWANT", len(log))
	}
	var p msg.Parsed
	if err := p.Decode(log[0].Data); err != nil || p.Kind != msg.KindIWant || p.ID != id || log[0].To != 2 {
		t.Fatalf("frame after IHAVE for own id = %+v (err %v), want IWANT to 2", log[0], err)
	}
}
