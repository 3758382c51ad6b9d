package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"emcast/internal/core"
	"emcast/internal/emunet"
	"emcast/internal/ids"
	"emcast/internal/monitor"
	"emcast/internal/neem"
	"emcast/internal/peer"
	"emcast/internal/scenario"
	"emcast/internal/sim"
	"emcast/internal/strategy"
	"emcast/internal/topology"
	"emcast/internal/trace"
)

// This file assembles the same stack the product assembles (sim.New for the
// simulator, emcast.NewPeer for TCP) from the layers' exported constructors,
// with a wrapper at every boundary, so the traced run can record a span per
// call into a layer without a line of tracing inside the product. Numbers
// from it are per-layer numbers only; a fidelity check compares its work
// per message with the untraced run's.

// tracedTransport wraps peer.Transport: emunet.send on the simulator,
// neem.send on TCP, where it also stamps the enqueue instant on the link.
type tracedTransport struct {
	inner peer.Transport
	c     *spanCtx
	name  spanName
	out   []*linkClock // neem only: per destination
}

func (t *tracedTransport) Local() peer.ID { return t.inner.Local() }

func (t *tracedTransport) Send(to peer.ID, frame []byte) {
	traced := t.c.active() // set-up sends happen outside any root
	if traced {
		t.c.begin(t.name)
	}
	if t.out != nil {
		t.out[to].push(t.c.now())
	}
	t.inner.Send(to, frame)
	if traced {
		t.c.end()
	}
}

// linkClock carries enqueue instants along one directed link. TCP delivers
// a connection's frames in order, so the receiver's n-th handler entry on
// the link matches the sender's n-th enqueue.
type linkClock struct {
	mu sync.Mutex
	at []int64
}

func (l *linkClock) push(at int64) {
	l.mu.Lock()
	l.at = append(l.at, at)
	l.mu.Unlock()
}

func (l *linkClock) pop() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.at) == 0 {
		return 0
	}
	at := l.at[0]
	l.at = l.at[1:]
	return at
}

// tracedStrategy wraps strategy.Strategy.
type tracedStrategy struct {
	strategy.Strategy
	c *spanCtx
}

func (s *tracedStrategy) Eager(id ids.ID, round int, to peer.ID) bool {
	s.c.begin(spEager)
	eager := s.Strategy.Eager(id, round, to)
	s.c.end()
	return eager
}

func (s *tracedStrategy) PickSource(sources []peer.ID) peer.ID {
	s.c.begin(spPickSource)
	src := s.Strategy.PickSource(sources)
	s.c.end()
	return src
}

// tracedTracer wraps trace.Tracer: every event folded is one trace.fold.
type tracedTracer struct {
	inner trace.Tracer
	c     *spanCtx
}

func (t *tracedTracer) Multicast(origin peer.ID, id ids.ID, at time.Duration) {
	t.c.begin(spFold)
	t.inner.Multicast(origin, id, at)
	t.c.end()
}

func (t *tracedTracer) Delivered(node peer.ID, id ids.ID, at time.Duration) {
	t.c.begin(spFold)
	t.inner.Delivered(node, id, at)
	t.c.end()
}

func (t *tracedTracer) PayloadSent(from, to peer.ID, id ids.ID, bytes int, eager bool) {
	t.c.begin(spFold)
	t.inner.PayloadSent(from, to, id, bytes, eager)
	t.c.end()
}

func (t *tracedTracer) ControlSent(from, to peer.ID, kind string, bytes int) {
	t.c.begin(spFold)
	t.inner.ControlSent(from, to, kind, bytes)
	t.c.end()
}

func (t *tracedTracer) DuplicatePayload(node peer.ID, id ids.ID) {
	t.c.begin(spFold)
	t.inner.DuplicatePayload(node, id)
	t.c.end()
}

func (t *tracedTracer) RequestMiss(node peer.ID, id ids.ID) {
	t.c.begin(spFold)
	t.inner.RequestMiss(node, id)
	t.c.end()
}

// simTimers wraps the emulator's timers: arming is emunet.after_func, the
// callback is a root (emunet.step) holding core.timer_fire.
type simTimers struct {
	net *emunet.Network
	c   *spanCtx
}

func (t simTimers) AfterFunc(d time.Duration, fn func()) peer.Timer {
	fire := func() {
		t.c.beginRoot(spStep, t.c.prevEnd, 0)
		t.c.begin(spTimerFire)
		fn()
		t.c.end()
		t.c.end()
	}
	if !t.c.active() {
		return t.net.AfterFunc(d, fire)
	}
	t.c.begin(spAfterFunc)
	tm := t.net.AfterFunc(d, fire)
	t.c.end()
	return tm
}

type simClock struct{ net *emunet.Network }

func (c simClock) Now() time.Duration { return c.net.Now() }

// emunetTransport adapts the emulator to peer.Transport, as sim does.
type emunetTransport struct {
	net  *emunet.Network
	self peer.ID
}

func (t emunetTransport) Send(to peer.ID, frame []byte) { t.net.Send(int(t.self), int(to), frame) }
func (t emunetTransport) Local() peer.ID                { return t.self }

// simWarmup is sim.Runner.Warmup's: shuffles randomise the seeded views.
const simWarmup = 5 * time.Second

// runTracedSim assembles the simulator stack itself, plays the workload's
// schedule on it and reports the span ledger.
func runTracedSim(name string, def *simDef, seed int64, tracePath string) (*iteration, error) {
	spec := def.spec(name, seed)
	c := newSpanCtx(time.Now())

	tp := topology.DefaultParams()
	if def.scale > 1 {
		tp = tp.Scaled(def.scale)
	}
	tp.Clients, tp.Seed = def.nodes, seed
	matrix := topology.Generate(tp).ClientMatrix()
	net := emunet.New(def.nodes, func(from, to int) time.Duration {
		c.begin(spLatency) // only ever called from inside emunet.Send
		d := matrix.Latency(from, to)
		c.end()
		return d
	}, emunet.Config{Loss: def.loss, Seed: seed ^ 0x5ca1ab1e, PooledFrames: true})

	stream := trace.NewStreaming()
	stream.Presize(def.nodes)
	tracer := &tracedTracer{inner: stream, c: c}
	var best map[peer.ID]bool
	if def.strategy == "ranked" {
		ranking := monitor.Rank(def.nodes, func(a, b peer.ID) float64 {
			return float64(matrix.Latency(int(a), int(b))) / float64(time.Millisecond)
		})
		best = monitor.BestSet(ranking, sim.DefaultConfig().BestFraction)
	}

	delivered := 0
	nodes := make([]*core.Node, def.nodes)
	for i := range nodes {
		id := peer.ID(i)
		env := &peer.Env{
			Transport: &tracedTransport{inner: emunetTransport{net: net, self: id}, c: c, name: spEmunetSend},
			Clock:     simClock{net: net},
			Timers:    simTimers{net: net, c: c},
			RNG:       rand.New(rand.NewSource(seed ^ int64(i+1)*0x2545f491)),
		}
		var strat strategy.Strategy
		switch def.strategy {
		case "eager":
			strat = &strategy.Flat{P: 1, RNG: env.RNG}
		case "lazy":
			strat = &strategy.Flat{P: 0, RNG: env.RNG}
		case "flat":
			strat = &strategy.Flat{P: def.flatP, RNG: env.RNG}
		case "ranked":
			strat = &strategy.Ranked{Self: id, IsBest: func(p peer.ID) bool { return best[p] }}
		}
		cfg := core.DefaultConfig()
		cfg.Seed = seed ^ int64(i)<<20
		node := core.NewNode(cfg, env, core.Options{
			Strategy: &tracedStrategy{Strategy: strat, c: c},
			Tracer:   tracer,
			Deliver: func(ids.ID, []byte) {
				c.begin(spDeliver)
				delivered++
				c.end()
			},
		})
		nodes[i] = node
		net.Register(i, emunet.HandlerFunc(func(from int, frame []byte) {
			c.beginRoot(spStep, c.prevEnd, 0)
			c.begin(handleSpan(frame))
			if id, ok := frameID(frame); ok {
				c.tag(id)
			}
			node.HandleFrame(peer.ID(from), frame)
			c.end()
			c.end()
		}))
	}
	rng := rand.New(rand.NewSource(seed ^ 0x7aff1c))
	for i, neighbours := range symmetricGraph(def.nodes, core.DefaultConfig().Membership.ViewSize, rng) {
		nodes[i].SeedView(neighbours)
		nodes[i].Start()
	}

	// The timed region mirrors scenario.Engine.Run: warm-up, the phases
	// back to back, the drain.
	failed := make([]bool, def.nodes)
	alive := func(n int) bool { return !failed[n] }
	liveNodes := func() []int {
		live := make([]int, 0, def.nodes)
		for n := range failed {
			if !failed[n] {
				live = append(live, n)
			}
		}
		return live
	}
	run := func(d time.Duration) {
		c.prevEnd = c.now()
		net.Run(net.Now() + d)
	}
	probed := probeHost()
	before := takeUsage()
	run(simWarmup)
	var lastPhase time.Duration
	for i := range spec.Phases {
		p := &spec.Phases[i]
		lastPhase = net.Now()
		st := scenario.NewStream(&p.Traffic[0], scenario.StreamSeed(seed, i, 0), def.nodes)
		for _, at := range st.Arrivals(p.Duration.D()) {
			net.AfterFunc(at, func() {
				from, ok := st.PickSender(liveNodes(), alive)
				if !ok {
					return
				}
				c.beginRoot(spStep, c.prevEnd, 0)
				c.begin(spMulticast)
				c.tag(nodes[from].Multicast(st.Payload()))
				c.end()
				c.end()
			})
		}
		for range p.Churn {
			net.AfterFunc(crashAt, func() {
				for k := 0; k < def.crash; k++ {
					live := liveNodes()
					victim := live[rng.Intn(len(live))]
					failed[victim] = true
					net.Silence(victim)
				}
			})
		}
		d := p.Duration.D()
		if i == len(spec.Phases)-1 {
			d += spec.Drain.D()
		}
		run(d)
	}
	u := takeUsage().since(before)
	host := probed()

	it := &iteration{Workload: name, Seed: seed, Metrics: map[string]float64{}, WallS: u.wall.Seconds()}
	survivors := make(map[peer.ID]bool, def.nodes)
	for _, n := range liveNodes() {
		survivors[peer.ID(n)] = true
	}
	simMetrics(it, simObserved{
		msgs:      stream.MessageStats(),
		cp:        stream.Checkpoint(),
		net:       net,
		matrix:    matrix,
		nodes:     def.nodes,
		survivors: survivors,
		lastPhase: lastPhase,
		lossFree:  def.loss == 0 && def.crash == 0,
	})
	u.fill(it, it.Metrics["deliveries"], host)
	if int64(delivered) != int64(it.Metrics["deliveries"]) {
		it.failf("traced stack: %d deliver upcalls, %v traced deliveries", delivered, it.Metrics["deliveries"])
	}
	return it, finishTrace(it, []*spanCtx{c}, tracePath)
}

// symmetricGraph builds the warm overlay the way sim does: a random ring
// for connectivity plus random edges up to the view size.
func symmetricGraph(n, degree int, rng *rand.Rand) [][]peer.ID {
	adj := make([][]peer.ID, n)
	edges := make(map[[2]int]bool)
	add := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		if a == b || edges[[2]int{a, b}] || len(adj[a]) >= degree || len(adj[b]) >= degree {
			return
		}
		edges[[2]int{a, b}] = true
		adj[a] = append(adj[a], peer.ID(b))
		adj[b] = append(adj[b], peer.ID(a))
	}
	perm := rng.Perm(n)
	for i := range perm {
		add(perm[i], perm[(i+1)%n])
	}
	for tries := 0; tries < 20*n*degree; tries++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	return adj
}

// tracedFleet is the live stack assembled as emcast.NewPeer assembles it:
// neem transport, core node, eager strategy, with a span context per node.
type tracedFleet struct {
	nodes      []*core.Node
	transports []*neem.Transport
	ctxs       []*spanCtx
}

func startTracedFleet(def *liveDef, seed int64, tracer trace.Tracer, deliver func(peer int, payload []byte)) (*tracedFleet, error) {
	f := &tracedFleet{}
	base := time.Now()
	links := make([][]*linkClock, def.peers) // [from][to]
	for i := range links {
		links[i] = make([]*linkClock, def.peers)
		for j := range links[i] {
			links[i][j] = &linkClock{}
		}
	}
	clock := neem.NewClockAt(base)
	for i := 0; i < def.peers; i++ {
		i := i
		c := newSpanCtx(base)
		tr, err := neem.Listen(neem.Config{Self: peer.ID(i), ListenAddr: "127.0.0.1:0"}, nil)
		if err != nil {
			f.close()
			return nil, err
		}
		env := &peer.Env{
			Transport: &tracedTransport{inner: tr, c: c, name: spNeemSend, out: links[i]},
			Clock:     clock,
			Timers:    liveTimers{c: c},
		}
		cfg := core.DefaultConfig()
		cfg.Seed = seed<<8 + int64(i) + 1
		flat := &strategy.Flat{P: 1}
		node := core.NewNode(cfg, env, core.Options{
			Strategy: &tracedStrategy{Strategy: flat, c: c},
			Tracer:   &tracedTracer{inner: tracer, c: c},
			Deliver: func(_ ids.ID, payload []byte) {
				c.begin(spDeliver)
				deliver(i, append([]byte(nil), payload...)) // emcast.Peer hands the application a copy
				c.end()
			},
		})
		flat.RNG = env.RNG // filled by core.NewNode
		tr.SetHandler(func(from peer.ID, frame []byte) {
			arrived := c.now()
			enqueued := links[from][i].pop()
			c.mu.Lock()
			c.beginRoot(handleSpan(frame), arrived, enqueued)
			if id, ok := frameID(frame); ok {
				c.tag(id)
			}
			node.HandleFrame(from, frame)
			c.end()
			c.mu.Unlock()
		})
		f.nodes, f.transports, f.ctxs = append(f.nodes, node), append(f.transports, tr), append(f.ctxs, c)
	}
	for i, node := range f.nodes {
		others := make([]peer.ID, 0, def.peers-1)
		for j, tr := range f.transports {
			if j != i {
				others = append(others, peer.ID(j))
				f.transports[i].AddPeer(peer.ID(j), tr.Addr().String())
			}
		}
		node.SeedView(others)
		node.Start()
	}
	return f, nil
}

// liveTimers wraps neem.Timers: the callback is a root, core.timer_fire.
type liveTimers struct{ c *spanCtx }

func (t liveTimers) AfterFunc(d time.Duration, fn func()) peer.Timer {
	return neem.Timers{}.AfterFunc(d, func() {
		t.c.mu.Lock()
		t.c.beginRoot(spTimerFire, t.c.now(), 0)
		fn()
		t.c.end()
		t.c.mu.Unlock()
	})
}

func (f *tracedFleet) multicast(from int, payload []byte) {
	c := f.ctxs[from]
	c.mu.Lock()
	c.beginRoot(spMulticast, c.now(), 0)
	c.tag(f.nodes[from].Multicast(payload))
	c.end()
	c.mu.Unlock()
}

func (f *tracedFleet) transport() neem.Stats {
	var sum neem.Stats
	for _, tr := range f.transports {
		sum.Add(tr.Stats())
	}
	return sum
}

func (f *tracedFleet) viewSizeMin() int {
	least := len(f.nodes)
	for _, n := range f.nodes {
		least = min(least, len(n.View()))
	}
	return least
}

func (f *tracedFleet) close() {
	for _, n := range f.nodes {
		n.Stop()
	}
	for _, tr := range f.transports {
		// Close only reports the listener's close error; nothing to act on.
		_ = tr.Close()
	}
}

// resetSpans drops what the warm-up recorded.
func (f *tracedFleet) resetSpans() {
	for _, c := range f.ctxs {
		c.mu.Lock()
		c.totals, c.trees, c.roots = [numSpans]spanTotals{}, nil, 0
		c.mu.Unlock()
	}
}

// runTracedLive plays a live workload on the self-assembled stack.
func runTracedLive(name string, def *liveDef, seed int64, tracePath string) (*iteration, error) {
	if def.procs > 0 {
		runtime.GOMAXPROCS(def.procs)
	}
	l := newLoad(def, seed)
	tracer := &countingTracer{}
	f, err := startTracedFleet(def, seed, tracer, l.deliver)
	if err != nil {
		return nil, err
	}
	defer f.close()
	if err := l.warmUp(f); err != nil {
		return nil, err
	}
	f.resetSpans()
	it := &iteration{Workload: name, Seed: seed, Metrics: map[string]float64{}}
	measureLive(it, l, f, tracer.counters)
	return it, finishTrace(it, f.ctxs, tracePath)
}
