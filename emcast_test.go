package emcast

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"emcast/internal/trace"
)

// startTCPGroup starts n loopback peers on ephemeral ports (listen on
// 127.0.0.1:0, read the bound address back) and wires every address book
// once all listeners are up — no hardcoded ports, so parallel CI jobs
// cannot collide. mutate, when non-nil, adjusts each peer's config before
// start. The group is closed via t.Cleanup.
func startTCPGroup(t *testing.T, n int, mutate func(cfg *PeerConfig)) []*Peer {
	t.Helper()
	peers := make([]*Peer, 0, n)
	for i := 0; i < n; i++ {
		self := NodeID(i)
		// Seed the view with every group member by id; addresses of
		// peers not yet started follow via AddPeer below.
		bootstrap := make([]NodeID, 0, n-1)
		for j := 0; j < n; j++ {
			if NodeID(j) != self {
				bootstrap = append(bootstrap, NodeID(j))
			}
		}
		cfg := PeerConfig{
			Self:       self,
			ListenAddr: "127.0.0.1:0",
			Peers:      map[NodeID]string{},
			Bootstrap:  bootstrap,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		p, err := NewPeer(cfg)
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		t.Cleanup(func() { p.Close() })
		peers = append(peers, p)
	}
	for i, p := range peers {
		for j, q := range peers {
			if i != j {
				p.AddPeer(NodeID(j), q.Addr())
			}
		}
	}
	return peers
}

// waitDelivered polls until every peer has delivered the message or the
// deadline passes.
func waitDelivered(peers []*Peer, id MessageID, deadline time.Duration) bool {
	limit := time.Now().Add(deadline)
	for {
		all := true
		for _, p := range peers {
			if !p.Delivered(id) {
				all = false
				break
			}
		}
		if all {
			return true
		}
		if time.Now().After(limit) {
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestClusterEagerDeliversEverywhere(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 30, Strategy: Eager, TopologyScale: 8})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello overlay")
	id, err := c.Multicast(0, payload)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(5 * time.Second)

	got := make(map[NodeID]bool)
	for _, d := range c.Deliveries() {
		if d.ID != id {
			t.Fatalf("unexpected message id %v", d.ID)
		}
		if !bytes.Equal(d.Payload, payload) {
			t.Fatalf("payload corrupted: %q", d.Payload)
		}
		got[d.Node] = true
	}
	if len(got) != c.Size() {
		t.Fatalf("delivered to %d/%d nodes", len(got), c.Size())
	}
	if s := c.Stats(); s.AtomicRate != 1 {
		t.Fatalf("atomic rate %.2f, want 1", s.AtomicRate)
	}
}

// TestClusterDeliveriesShareOnePayload: a Cluster hands every node's
// delivery of a message the run's one kept copy, not a copy each, and that
// copy is the Cluster's own: it still holds the multicast bytes after the
// caller overwrites the buffer it multicast from.
func TestClusterDeliveriesShareOnePayload(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 30, Strategy: Lazy, TopologyScale: 8})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello overlay")
	if _, err := c.Multicast(0, payload); err != nil {
		t.Fatal(err)
	}
	copy(payload, "overwritten!!")
	c.Run(5 * time.Second)

	ds := c.Deliveries()
	if len(ds) != c.Size() {
		t.Fatalf("delivered at %d/%d nodes", len(ds), c.Size())
	}
	for _, d := range ds {
		if string(d.Payload) != "hello overlay" {
			t.Fatalf("node %d delivered %q, want %q", d.Node, d.Payload, "hello overlay")
		}
		if unsafe.SliceData(d.Payload) != unsafe.SliceData(ds[0].Payload) {
			t.Fatalf("node %d's delivery has a backing array of its own, want the one kept copy", d.Node)
		}
	}
}

func TestClusterStrategies(t *testing.T) {
	for _, s := range []Strategy{Eager, Lazy, Flat, TTL, Radius, Ranked, Hybrid} {
		s := s
		t.Run(string(s), func(t *testing.T) {
			c, err := NewCluster(ClusterConfig{Nodes: 25, Strategy: s, TopologyScale: 8})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Multicast(3, []byte("m")); err != nil {
				t.Fatal(err)
			}
			c.Run(10 * time.Second)
			if got := len(c.Deliveries()); got != c.Size() {
				t.Fatalf("strategy %s delivered to %d/%d nodes", s, got, c.Size())
			}
		})
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Strategy: "bogus"}); err == nil {
		t.Error("bogus strategy accepted")
	}
	if _, err := NewCluster(ClusterConfig{Noise: 2}); err == nil {
		t.Error("noise > 1 accepted")
	}
	if _, err := NewCluster(ClusterConfig{Loss: 1}); err == nil {
		t.Error("loss = 1 accepted")
	}
	// Strategy parameters are probabilities and quantiles: out of range
	// they used to run as something else (FlatP 5 as pure eager, a
	// negative one as 0.5, the other two clamped).
	for _, cfg := range []ClusterConfig{
		{Strategy: Flat, FlatP: 5}, {Strategy: Flat, FlatP: -0.1},
		{Strategy: Radius, RadiusQuantile: 1.5}, {Strategy: Ranked, BestFraction: 2},
	} {
		if _, err := NewCluster(cfg); err == nil || !strings.Contains(err.Error(), "outside [0, 1]") {
			t.Errorf("%+v: err = %v, want a range error", cfg, err)
		}
	}
	c, err := NewCluster(ClusterConfig{Nodes: 10, TopologyScale: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Multicast(10, nil); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := c.Fail(-1); err == nil {
		t.Error("out-of-range fail accepted")
	}
}

func TestClusterFailuresDoNotStopDissemination(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 40, Strategy: Ranked, TopologyScale: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Kill 25% of nodes, including hubs.
	killed := map[NodeID]bool{}
	for i := 0; i < 10; i++ {
		if err := c.Fail(i); err != nil {
			t.Fatal(err)
		}
		killed[NodeID(i)] = true
	}
	if _, err := c.Multicast(20, []byte("still alive")); err != nil {
		t.Fatal(err)
	}
	c.Run(10 * time.Second)
	got := make(map[NodeID]bool)
	for _, d := range c.Deliveries() {
		got[d.Node] = true
	}
	live := c.Size() - len(killed)
	if len(got) < live*95/100 {
		t.Fatalf("delivered to %d of %d live nodes", len(got), live)
	}
	for n := range got {
		if killed[n] {
			t.Fatalf("silenced node %d delivered a message", n)
		}
	}
}

func TestClusterStatsFields(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 25, Strategy: TTL, TTLRounds: 2, TopologyScale: 8})
	if err != nil {
		t.Fatal(err)
	}
	var prev time.Duration
	for i := 0; i < 10; i++ {
		if _, err := c.Multicast(i, []byte("m")); err != nil {
			t.Fatal(err)
		}
		c.Run(400 * time.Millisecond)
	}
	c.Run(10 * time.Second)
	s := c.Stats()
	if s.MessagesSent != 10 || s.Deliveries != 250 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MeanLatency <= 0 || s.P95Latency < s.MeanLatency/2 {
		t.Fatalf("latency stats odd: mean=%v p95=%v", s.MeanLatency, s.P95Latency)
	}
	if s.PayloadPerMsg < 0.9 || s.PayloadPerMsg > 3 {
		t.Fatalf("TTL payload/msg = %.2f", s.PayloadPerMsg)
	}
	// The documented hub/regular split must be populated even for
	// strategies that never consult the (lazily computed) ranking.
	if s.PayloadPerMsgLow <= 0 || s.PayloadPerMsgBest <= 0 {
		t.Fatalf("low/best split empty for TTL: low=%.2f best=%.2f",
			s.PayloadPerMsgLow, s.PayloadPerMsgBest)
	}
	if s.String() == "" {
		t.Fatal("empty Stats string")
	}
	// Deliveries are recorded in virtual-time order.
	for _, d := range c.Deliveries() {
		if d.At < prev {
			t.Fatal("deliveries out of time order")
		}
		prev = d.At
	}
	if c.Now() <= 0 {
		t.Fatal("virtual clock did not advance")
	}
}

func TestClusterGossipRanking(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Nodes:         40,
		Strategy:      Ranked,
		GossipRanking: true,
		TopologyScale: 8,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := c.Multicast(i, []byte("tick")); err != nil {
			t.Fatal(err)
		}
		c.Run(300 * time.Millisecond)
	}
	c.Run(10 * time.Second)
	s := c.Stats()
	if s.DeliveryRate < 0.99 {
		t.Fatalf("delivery rate %.3f with gossip ranking", s.DeliveryRate)
	}
	if s.Top5LinkShare < 0.08 {
		t.Fatalf("no emergent structure with gossip ranking: %.3f", s.Top5LinkShare)
	}
}

// TestPeersOverTCP runs a real 5-node group over loopback TCP and checks a
// multicast reaches every peer.
func TestPeersOverTCP(t *testing.T) {
	const n = 5
	var mu sync.Mutex
	delivered := make(map[NodeID]int)
	peers := startTCPGroup(t, n, func(cfg *PeerConfig) {
		cfg.Strategy = TTL
		cfg.TTLRounds = 2
		cfg.Fanout = 4
		cfg.OnDeliver = func(d Delivery) {
			mu.Lock()
			delivered[d.Node]++
			mu.Unlock()
		}
	})

	id := peers[0].Multicast([]byte("over the wire"))
	if !waitDelivered(peers, id, 5*time.Second) {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("timeout: deliveries=%v", delivered)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		if delivered[NodeID(i)] != 1 {
			t.Errorf("peer %d delivered %d times, want 1", i, delivered[NodeID(i)])
		}
	}
}

// TestPeerPayloadOwnership pins who owns the bytes over real TCP: the
// caller's buffer is its own once Multicast returns, and an upcall's
// payload is a view it copies to keep. In a 5-peer lazy group the origin
// overwrites its buffer right after Multicast, so the payload can only
// travel in IWANT answers from the copies the payload caches kept: every
// peer must still deliver the original bytes, once. A cache that held the
// caller's buffer instead of a copy would serve the overwritten bytes.
func TestPeerPayloadOwnership(t *testing.T) {
	const n = 5
	original := []byte("kept by the payload cache, not by the caller")
	var mu sync.Mutex
	delivered := make(map[NodeID][][]byte)
	peers := startTCPGroup(t, n, func(cfg *PeerConfig) {
		cfg.Strategy = Lazy
		cfg.OnDeliver = func(d Delivery) {
			mu.Lock()
			delivered[d.Node] = append(delivered[d.Node], bytes.Clone(d.Payload))
			mu.Unlock()
		}
	})

	buf := bytes.Clone(original)
	id := peers[0].Multicast(buf)
	copy(buf, bytes.Repeat([]byte("x"), len(buf)))
	if !waitDelivered(peers, id, 5*time.Second) {
		t.Fatal("timeout: the multicast did not reach every peer")
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		got := delivered[NodeID(i)]
		if len(got) != 1 || !bytes.Equal(got[0], original) {
			t.Errorf("peer %d delivered %q, want %q once", i, got, original)
		}
	}
}

// TestPeerLinkFilterPartition induces a network partition through the
// PeerConfig.LinkFilter hook — no OS-level tricks — and checks that frames
// stop crossing the cut in both directions, then flow again after a heal.
func TestPeerLinkFilterPartition(t *testing.T) {
	const n = 4
	var partitioned atomic.Bool
	// When partitioned, {0,1} and {2,3} are disconnected sides.
	filter := func(from, to NodeID) bool {
		if !partitioned.Load() {
			return true
		}
		return (from < 2) == (to < 2)
	}
	peers := startTCPGroup(t, n, func(cfg *PeerConfig) {
		cfg.Strategy = Eager
		cfg.Fanout = n
		cfg.LinkFilter = filter
	})

	// Sanity: fully connected before the cut.
	pre := peers[0].Multicast([]byte("before"))
	if !waitDelivered(peers, pre, 5*time.Second) {
		t.Fatal("pre-partition multicast did not reach the group")
	}

	partitioned.Store(true)
	cut := peers[0].Multicast([]byte("during"))
	if !waitDelivered(peers[:2], cut, 5*time.Second) {
		t.Fatal("multicast did not reach the sender's own side")
	}
	// The other side must stay dark: every frame that would carry the
	// payload (or its IHAVE) is dropped by the filter deterministically.
	time.Sleep(800 * time.Millisecond)
	for i := 2; i < n; i++ {
		if peers[i].Delivered(cut) {
			t.Fatalf("peer %d delivered across the partition", i)
		}
	}

	partitioned.Store(false)
	post := peers[1].Multicast([]byte("after heal"))
	if !waitDelivered(peers, post, 5*time.Second) {
		t.Fatal("post-heal multicast did not reach the group")
	}
}

// TestPeerFrameCounters checks the transport's sent/lost frame counters:
// traffic increments sent, and a full link filter turns sends into losses.
func TestPeerFrameCounters(t *testing.T) {
	var blocked atomic.Bool
	peers := startTCPGroup(t, 2, func(cfg *PeerConfig) {
		cfg.Strategy = Eager
		cfg.Fanout = 2
		cfg.LinkFilter = func(from, to NodeID) bool { return !blocked.Load() }
	})
	id := peers[0].Multicast([]byte("counted"))
	if !waitDelivered(peers, id, 5*time.Second) {
		t.Fatal("multicast did not deliver")
	}
	if peers[0].TransportStats().FramesSent == 0 {
		t.Fatal("no frames counted as sent")
	}
	blocked.Store(true)
	peers[0].Multicast([]byte("dropped"))
	deadline := time.Now().Add(2 * time.Second)
	for {
		if peers[0].TransportStats().FramesLost > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no frames counted as lost under a blocking filter")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPeerRankedWithoutHubs exercises the hubless Ranked configuration on
// a real network: hubs are discovered by the gossip-based ranking protocol
// instead of being configured.
func TestPeerRankedWithoutHubs(t *testing.T) {
	const n = 4
	peers := startTCPGroup(t, n, func(cfg *PeerConfig) {
		cfg.Strategy = Ranked // no Hubs: gossip ranking kicks in
		cfg.Fanout = 3
	})

	id := peers[1].Multicast([]byte("ranked without hubs"))
	if !waitDelivered(peers, id, 10*time.Second) {
		t.Fatal("timeout waiting for hubless ranked delivery")
	}
	if len(peers[0].View()) == 0 {
		t.Fatal("peer view empty")
	}
	// BelievesHub must answer without panicking in both modes; with
	// gossip ranking actual membership depends on measurements.
	peers[0].BelievesHub(1)
}

// TestPeerRejectsInvalidStrategy: a peer checks its strategy like every
// other surface, and before it binds a socket — the listen address here is
// taken, so a peer that bound first would report that instead.
func TestPeerRejectsInvalidStrategy(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	for _, c := range []struct {
		cfg  PeerConfig
		want string
	}{
		{PeerConfig{Strategy: "bogus"}, "unknown strategy"},
		{PeerConfig{Strategy: Flat, FlatP: 5}, "flat_p 5 outside [0, 1]"},
		{PeerConfig{Strategy: Flat, FlatP: -0.1}, "flat_p -0.1 outside [0, 1]"},
		{PeerConfig{Strategy: Ranked, BestFraction: 2}, "best_fraction 2 outside [0, 1]"},
		{PeerConfig{Strategy: Radius}, "requires RadiusMs"},
		{PeerConfig{Strategy: Hybrid, Hubs: []NodeID{1}}, "requires RadiusMs"},
	} {
		c.cfg.ListenAddr = taken.Addr().String()
		p, err := NewPeer(c.cfg)
		if err == nil {
			p.Close()
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.cfg.Strategy, err, c.want)
		}
	}
}

// TestPeerFlatDefaultsToHalf: a Flat peer without FlatP pushes eagerly
// with probability 0.5, as a flat Cluster or Spec does — not pure lazy.
func TestPeerFlatDefaultsToHalf(t *testing.T) {
	tracer := trace.NewLocked(trace.NewStreaming())
	peers := startTCPGroup(t, 4, func(cfg *PeerConfig) {
		cfg.Strategy = Flat
		cfg.Fanout = 3
		cfg.Tracer = tracer
	})
	for i := 0; i < 8; i++ {
		id := peers[i%4].Multicast([]byte("half"))
		if !waitDelivered(peers, id, 5*time.Second) {
			t.Fatalf("message %d not delivered everywhere", i)
		}
	}
	if cp := tracer.Checkpoint(); cp.EagerPayloads == 0 {
		t.Fatalf("flat peers sent no eager payload (%d lazy): FlatP defaulted to 0", cp.LazyPayloads)
	}
}

// TestPeerNearStrategies runs radius and hybrid on real sockets: distances
// come from the RTT monitor, the radius from RadiusMs, hybrid's hubs from
// Hubs or, without them, from gossip ranking.
func TestPeerNearStrategies(t *testing.T) {
	for _, c := range []struct {
		name     string
		strategy Strategy
		hubs     []NodeID
	}{
		{"radius", Radius, nil},
		{"hybrid", Hybrid, []NodeID{1}},
		{"hybrid-gossip-ranked", Hybrid, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			peers := startTCPGroup(t, 4, func(cfg *PeerConfig) {
				cfg.Strategy = c.strategy
				cfg.RadiusMs = 5
				cfg.Hubs = c.hubs
				cfg.Fanout = 3
			})
			for i := 0; i < 6; i++ {
				id := peers[i%4].Multicast([]byte(c.name))
				if !waitDelivered(peers, id, 5*time.Second) {
					t.Fatalf("message %d not delivered everywhere", i)
				}
			}
		})
	}
}

func TestPeerBelievesHubExplicit(t *testing.T) {
	p, err := NewPeer(PeerConfig{
		Self:       9,
		ListenAddr: "127.0.0.1:0",
		Peers:      map[NodeID]string{},
		Strategy:   Ranked,
		Hubs:       []NodeID{2, 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !p.BelievesHub(2) || !p.BelievesHub(9) || p.BelievesHub(5) {
		t.Fatal("explicit hub set not honoured")
	}
}

// TestPeerPublicMethodsUnderTraffic calls every public method that reaches
// the protocol node from four goroutines while a gossip-ranked fleet pings,
// shuffles and merges score samples on its transport goroutines. The node
// and its ranking table take no lock of their own; run with -race this
// pins that the peer's does cover them — BelievesHub used to read the table
// bare.
func TestPeerPublicMethodsUnderTraffic(t *testing.T) {
	const n = 4
	peers := startTCPGroup(t, n, func(cfg *PeerConfig) {
		cfg.Strategy = Ranked // no Hubs: the ranking table is live
		cfg.Fanout = 3
	})
	// Pings and score gossip run on 500 ms (±25 %) periods: the first
	// scores reach a table after about two of them.
	time.Sleep(1250 * time.Millisecond)
	deadline := time.Now().Add(time.Second)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := peers[g%n]
			var last MessageID
			for i := 0; time.Now().Before(deadline); i++ {
				p.BelievesHub(NodeID(i % n))
				p.View()
				p.Delivered(last)
				if i%64 == 0 {
					last = p.Multicast([]byte("hammer"))
				}
			}
		}(g)
	}
	wg.Wait()
}
