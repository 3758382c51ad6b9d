// Package sim assembles whole-system experiments — an Inet-style topology,
// the discrete-event network emulator, and one protocol node per client —
// into a Runner that is driven imperatively (Warmup, MulticastFrom, RunFor,
// Fail, Leave, Join) and traced into per-message aggregates
// (trace.MsgStats). What a run sends, kills and joins is decided
// elsewhere: by scenario.Player for every Spec, the paper's figures
// included. The paper's metrics are computed from the trace by package
// scenario, into its Metrics — for Player runs and hand-driven runners
// alike (scenario.Measure). The runner answers only what needs its oracle
// or topology: the low/best payload split (PayloadSplit) and plottable
// link loads (LinkLoads). Disruption windows whose recovery time will be
// measured must be declared up front with Runner.MarkRecovery (the Player
// does this automatically).
package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"emcast/internal/core"
	"emcast/internal/disstrace"
	"emcast/internal/emunet"
	"emcast/internal/faults"
	"emcast/internal/gossip"
	"emcast/internal/ids"
	"emcast/internal/lazy"
	"emcast/internal/monitor"
	"emcast/internal/obs"
	"emcast/internal/peer"
	"emcast/internal/ranking"
	"emcast/internal/stats"
	"emcast/internal/strategy"
	"emcast/internal/topology"
	"emcast/internal/trace"
)

// StrategyKind selects the transmission strategy under test.
type StrategyKind int

// Strategies (paper §4.1, §6.4).
const (
	StrategyFlat StrategyKind = iota + 1
	StrategyTTL
	StrategyRadius
	StrategyRanked
	StrategyHybrid
)

// String returns the strategy mnemonic.
func (k StrategyKind) String() string {
	switch k {
	case StrategyFlat:
		return "flat"
	case StrategyTTL:
		return "ttl"
	case StrategyRadius:
		return "radius"
	case StrategyRanked:
		return "ranked"
	case StrategyHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("StrategyKind(%d)", int(k))
	}
}

// ParseStrategy maps a name of the strategy vocabulary every Spec, sweep
// and Cluster shares — eager, lazy, flat, ttl, radius, ranked, hybrid —
// onto its kind and Flat's eager probability: eager and lazy are flat at 1
// and 0, and flat takes flatP, where 0 means the default 0.5.
func ParseStrategy(name string, flatP float64) (StrategyKind, float64, error) {
	switch name {
	case "eager":
		return StrategyFlat, 1, nil
	case "lazy":
		return StrategyFlat, 0, nil
	case "flat":
		if flatP <= 0 {
			flatP = 0.5
		}
	}
	for k := StrategyFlat; k <= StrategyHybrid; k++ {
		if k.String() == name {
			return k, flatP, nil
		}
	}
	return 0, 0, fmt.Errorf("unknown strategy %q", name)
}

// Config describes one simulated experiment run.
type Config struct {
	// Nodes is the number of protocol participants (paper: 100, plus
	// 200 for low-bandwidth configurations).
	Nodes int
	// Seed drives all randomness: topology, emulator, node protocols.
	Seed int64

	// Strategy selects the transmission strategy; parameters below.
	Strategy StrategyKind
	// FlatP is Flat's eager probability.
	FlatP float64
	// TTLRounds is TTL's u.
	TTLRounds int
	// RadiusQuantile positions Radius' ρ at this quantile of the
	// pairwise latency distribution (e.g. 0.1 ⇒ the closest 10% of
	// pairs are within the radius).
	RadiusQuantile float64
	// BestFraction is the fraction of nodes designated best for Ranked
	// and Hybrid (paper §6.4 uses 20%).
	BestFraction float64
	// DistanceMetric switches oracle monitors from latency to geographic
	// distance (paper §6.1 uses the pseudo-geographic oracle for the
	// emergent-structure plots).
	DistanceMetric bool

	// Noise is the §4.3 noise ratio o in [0, 1]; zero disables the
	// wrapper.
	Noise float64

	// LateJoiners adds this many extra nodes that start outside the
	// overlay; each enters through the Join protocol when the caller
	// invokes Runner.Join.
	LateJoiners int

	// Loss is the network frame loss probability.
	Loss float64

	// Topology overrides the generated topology parameters; nil uses
	// DefaultParams with Clients=Nodes. Tests use scaled-down router
	// populations for speed.
	Topology *topology.Params

	// Core overrides protocol configuration; nil uses the paper's
	// defaults.
	Core *core.Config

	// UseEWMAMonitor switches Radius/Ranked/Hybrid monitors from the
	// model oracle to the run-time ping-driven EWMA monitor.
	UseEWMAMonitor bool
	// UseGossipRanking switches the Ranked/Hybrid best set from the
	// model oracle to the fully decentralized pipeline: ping-driven EWMA
	// monitors feed per-node centrality scores spread by the
	// gossip-based ranking protocol (paper §4.1). Implies
	// UseEWMAMonitor-style probing for score derivation while the
	// Eager? metric still uses the oracle unless UseEWMAMonitor is also
	// set.
	UseGossipRanking bool
	// TraceSample, when positive, attaches a dissemination tracer
	// (internal/disstrace) that records the full hop graph of a
	// deterministic sample of message ids at this rate. The tracer rides
	// a trace.Tee beside the run's collector and never feeds the
	// seeded path: reports are byte-identical with sampling on or off,
	// and the sampled set is a pure function of (Seed, id).
	TraceSample float64
	// OnDeliver, when set, is invoked for every application-level
	// delivery (library embedding; experiments leave it nil). The payload
	// is the run's one kept copy of the message, shared by every node:
	// read-only, so copy it to modify it.
	OnDeliver func(node peer.ID, id ids.ID, payload []byte)

	// Obs, when set, receives run counters (events, frames,
	// deliveries). The registry only observes the run — it never feeds
	// the seeded path, so results are byte-identical with it attached or
	// nil. Multiple runners may share one registry: counters aggregate
	// by name.
	Obs *obs.Registry

	// Faults, when set, attaches the deterministic fault-injection plane
	// (internal/faults) to the emulator: link drop/delay/duplicate/
	// reorder rules and node stalls applied at frame-send time. The
	// injector draws from its own seed, never from the emulator RNG, so
	// an attached-but-inert injector leaves runs byte-identical — the
	// equivalence tests pin that.
	Faults *faults.Injector
}

// DefaultConfig is the paper's standard deployment: 100 nodes, eager push,
// fanout 11, overlay 15, T=400 ms.
func DefaultConfig() Config {
	return Config{
		Nodes:          100,
		Seed:           1,
		Strategy:       StrategyFlat,
		FlatP:          1.0,
		TTLRounds:      2,
		RadiusQuantile: 0.10,
		BestFraction:   0.20,
	}
}

func (c *Config) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 100
	}
	if c.BestFraction <= 0 {
		c.BestFraction = 0.20
	}
}

// Runner is an assembled simulation ready to execute.
type Runner struct {
	cfg    Config
	topo   *topology.Network
	matrix *topology.Matrix
	net    *emunet.Network
	nodes  []*core.Node
	tracer *trace.Streaming
	// payloads is the one store every node keeps payloads through, so a
	// message's bytes are held once per run, not once per node.
	payloads *lazy.Payloads
	// diss is the optional sampling dissemination tracer; nodeTracer is
	// what nodes actually see (tracer, teed with diss when sampling is
	// on). The metric pipeline keeps querying tracer directly.
	diss       *disstrace.Tracer
	nodeTracer trace.Tracer
	failed     map[peer.ID]bool
	joinedAt   map[peer.ID]time.Duration
	rng        *rand.Rand

	// Observability (optional, never feeds the seeded path).
	multicasts *obs.Counter
	deliveries *obs.Counter

	// Oracle state (§4.3 global knowledge), materialised lazily by
	// ensureOracle: flat and TTL runs never query it, so they skip the
	// O(n²) pair scans entirely — the setup cost that dominated large
	// sweep cells.
	oracleDone bool
	best       map[peer.ID]bool
	ranked     []peer.ID
	rho        float64
	t0         time.Duration
}

// New builds a runner from cfg: topology, emulator, nodes with warm views.
func New(cfg Config) *Runner {
	cfg.fill()
	tp := topology.DefaultParams()
	if cfg.Topology != nil {
		tp = *cfg.Topology
	}
	total := cfg.Nodes + cfg.LateJoiners
	tp.Clients = total
	tp.Seed = cfg.Seed
	topo := topology.Generate(tp)
	matrix := topo.ClientMatrix()

	net := emunet.New(total, func(from, to int) time.Duration {
		return matrix.Latency(from, to)
	}, emunet.Config{
		Loss: cfg.Loss,
		Seed: cfg.Seed ^ 0x5ca1ab1e,
		// Protocol handlers never retain raw frames (core.Node decodes
		// into per-node scratch and the lazy layer keeps payloads through
		// the run's store, which copies them on first receipt), so the
		// runner opts into the frame arena.
		PooledFrames: true,
	})
	if cfg.Faults != nil {
		net.SetFaults(cfg.Faults)
	}

	tracer := trace.NewStreaming()
	// Presize per-message aggregates to the known population so the
	// per-delivery fold stops growing slices mid-run.
	tracer.Presize(total)
	r := &Runner{
		cfg:        cfg,
		topo:       topo,
		matrix:     matrix,
		net:        net,
		tracer:     tracer,
		nodeTracer: tracer,
		failed:     make(map[peer.ID]bool),
		joinedAt:   make(map[peer.ID]time.Duration),
		rng:        rand.New(rand.NewSource(cfg.Seed ^ 0x7aff1c)),
	}
	if cfg.TraceSample > 0 {
		r.diss = disstrace.New(disstrace.Config{
			Rate: cfg.TraceSample,
			Seed: cfg.Seed,
			Obs:  cfg.Obs,
		})
		r.nodeTracer = trace.Tee(tracer, r.diss)
	}
	r.attachObs()
	r.buildNodes()
	return r
}

// Histogram bounds for the hot-loop breakdown: queue depths span four
// decades (a 30k-node cell queues hundreds of thousands of events), batch
// sizes are small powers of two (most virtual instants execute a handful
// of events).
var (
	queueDepthBuckets = []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}
	batchSizeBuckets  = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
)

// attachObs registers the runner's instruments on cfg.Obs (a no-op when
// nil — every instrument method is nil-safe). Counters are shared by
// name across runners, so concurrent sweep cells aggregate into one
// series.
func (r *Runner) attachObs() {
	reg := r.cfg.Obs
	deliver := obs.Label{Key: "class", Value: "deliver"}
	timer := obs.Label{Key: "class", Value: "timer"}
	r.net.SetInstruments(emunet.Instruments{
		Events:          reg.Counter("sim_events_total", "emulator events processed (frame deliveries and timer fires)"),
		FramesSent:      reg.Counter("sim_frames_sent_total", "frames submitted to the emulated network"),
		FramesDelivered: reg.Counter("sim_frames_delivered_total", "frames delivered to protocol handlers"),
		FramesLost:      reg.Counter("sim_frames_lost_total", "frames dropped by loss, silence or partition"),
		BytesDelivered:  reg.Counter("sim_bytes_delivered_total", "payload bytes delivered to protocol handlers"),

		// Hot-loop breakdown: event-class counts, stride-sampled handler
		// timing, queue depth and per-tick batch sizes. All of it only
		// reads the loop; the virtual clock and RNG never see it.
		DeliverEvents:         reg.Counter("sim_events_class_total", "emulator events by class", deliver),
		TimerEvents:           reg.Counter("sim_events_class_total", "emulator events by class", timer),
		BandwidthQueuedFrames: reg.Counter("sim_frames_bandwidth_queued_total", "frames that waited behind an earlier frame on a busy outbound link"),
		DeliverNanos:          reg.Counter("sim_event_sampled_ns_total", "wall-clock nanoseconds spent in sampled event handlers, by class", deliver),
		TimerNanos:            reg.Counter("sim_event_sampled_ns_total", "wall-clock nanoseconds spent in sampled event handlers, by class", timer),
		SampledEvents:         reg.Counter("sim_events_sampled_total", "events whose handler was wall-clock timed (every SampleStride-th)"),
		QueueDepth:            reg.Gauge("sim_event_queue_depth", "event-queue depth at the last sampled event"),
		QueueDepthHist:        reg.Histogram("sim_event_queue_depth_hist", "event-queue depth observed at sampled events", queueDepthBuckets),
		BatchSize:             reg.Histogram("sim_tick_batch_size", "events executed per distinct virtual instant", batchSizeBuckets),
	})
	r.multicasts = reg.Counter("sim_multicasts_total", "application multicasts initiated")
	r.deliveries = reg.Counter("sim_deliveries_total", "application-level message deliveries")
}

// Events returns the number of emulator events executed so far — the
// denominator of the events/sec throughput figure.
func (r *Runner) Events() uint64 { return r.net.EventsProcessed }

// Footprints walks every per-node state owner (membership view, gossip's
// own ids, lazy module, core bookkeeping), the shared payload store, the
// emulator, the trace collector and the topology matrix, and returns the
// per-subsystem retained-byte totals sorted by subsystem name. The walk is
// pure read-only arithmetic — no allocation inside the observed
// structures, no RNG, no virtual-time interaction — so calling it at any
// boundary leaves reports byte-identical. Cost is O(nodes + pending
// requests); take it at phase boundaries, not per event.
func (r *Runner) Footprints() []obs.Footprint {
	fps := make([]obs.Footprint, 0, 4*len(r.nodes)+4)
	for _, n := range r.nodes {
		fps = append(fps, n.Footprints()...)
	}
	fps = append(fps, r.payloads.Footprint(), r.net.Footprint(), r.tracer.Footprint(), r.matrix.Footprint())
	return obs.MergeFootprints(fps)
}

// ensureOracle materialises the §4.3 oracle quantities (ρ, T0, ranking,
// best set) on first use. The computation scans all node pairs several
// times — quadratic work that strategies without a radius or ranking
// (flat, ttl) never need, so it is deferred until a strategy, a failure
// injector, or an explicit accessor asks for it.
func (r *Runner) ensureOracle() {
	if r.oracleDone {
		return
	}
	r.oracleDone = true
	r.computeOracle()
}

// computeOracle derives ρ, T0 and the best set from global model knowledge,
// as the paper's evaluation does (§4.3).
func (r *Runner) computeOracle() {
	q := r.cfg.RadiusQuantile
	if q <= 0 {
		q = 0.10
	}
	r.rho, r.t0 = r.quantiles(q)
	r.ranked = monitor.Rank(r.cfg.Nodes, func(a, b peer.ID) float64 {
		return r.pairMetric(a, b)
	})
	r.best = monitor.BestSet(r.ranked, r.cfg.BestFraction)
}

// quantiles returns ρ and T0 at quantile q: the exact q-quantiles of the
// n(n−1) pairwise metric and latency distributions — element int(q·(N−1))
// of each sorted distribution — selected by stats.Kth from pairs streamed
// one latency row at a time, so no pairwise slice is ever built or sorted.
func (r *Runner) quantiles(q float64) (rho float64, t0 time.Duration) {
	cfg := r.cfg
	n := cfg.Nodes
	k := int(q * float64(n*(n-1)-1))
	row := make([]time.Duration, n+cfg.LateJoiners)
	lats := func(yield func(float64) bool) {
		for i := 0; i < n; i++ {
			r.matrix.LatencyRowInto(row, i)
			for j := 0; j < n; j++ {
				if i != j && !yield(float64(row[j])) {
					return
				}
			}
		}
	}
	// T0: expected latency within the radius — approximate with the
	// same quantile of the latency distribution (in time units).
	lat := stats.Kth(lats, k)
	if !cfg.DistanceMetric {
		// The latency metric is pairMetric's monotone map of the latency,
		// so its k-th value is the map of the k-th latency.
		return lat / float64(time.Millisecond), time.Duration(lat)
	}
	dists := func(yield func(float64) bool) {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && !yield(r.matrix.Distance(i, j)) {
					return
				}
			}
		}
	}
	return stats.Kth(dists, k), time.Duration(lat)
}

// pairMetric is the oracle metric between two clients: one-way latency in
// milliseconds, or plane distance when DistanceMetric is set.
func (r *Runner) pairMetric(a, b peer.ID) float64 {
	if r.cfg.DistanceMetric {
		return r.matrix.Distance(int(a), int(b))
	}
	return float64(r.matrix.Latency(int(a), int(b))) / float64(time.Millisecond)
}

func (r *Runner) buildNodes() {
	cfg := r.cfg
	coreCfg := core.DefaultConfig()
	if cfg.Core != nil {
		coreCfg = *cfg.Core
	}
	total := cfg.Nodes + cfg.LateJoiners
	r.nodes = make([]*core.Node, total)
	r.payloads = &lazy.Payloads{}
	for i := 0; i < total; i++ {
		id := peer.ID(i)
		env := &peer.Env{
			Transport: &simTransport{net: r.net, self: id},
			Clock:     simClock{net: r.net},
			Timers:    simTimers{net: r.net},
			RNG:       rand.New(rand.NewSource(cfg.Seed ^ int64(i+1)*0x2545f491)),
		}
		nodeCfg := coreCfg
		nodeCfg.Seed = cfg.Seed ^ int64(i)<<20
		var ewma *monitor.EWMA
		if cfg.UseEWMAMonitor || cfg.UseGossipRanking {
			ewma = monitor.NewEWMA(0.125)
			if nodeCfg.PingPeriod <= 0 {
				nodeCfg.PingPeriod = 500 * time.Millisecond
			}
		}
		var table *ranking.Table
		if cfg.UseGossipRanking {
			table = ranking.NewTable(ranking.Config{Fraction: cfg.BestFraction}, id)
			if nodeCfg.RankGossipPeriod <= 0 {
				nodeCfg.RankGossipPeriod = 500 * time.Millisecond
			}
		}
		strat := r.buildStrategy(id, env, ewma, table)
		var deliver gossip.DeliverFunc
		if cfg.OnDeliver != nil {
			onDeliver := cfg.OnDeliver
			deliver = func(mid ids.ID, payload []byte) {
				r.deliveries.Inc()
				onDeliver(id, mid, payload)
			}
		} else if r.deliveries != nil {
			deliver = func(mid ids.ID, payload []byte) { r.deliveries.Inc() }
		}
		node := core.NewNode(nodeCfg, env, core.Options{
			Strategy: strat,
			Deliver:  deliver,
			Tracer:   r.nodeTracer,
			EWMA:     ewma,
			Ranking:  table,
			Payloads: r.payloads,
		})
		r.nodes[i] = node
		r.net.Register(i, frameHandler{node: node})
	}
	// Warm the overlay: seed views from a random symmetric graph, as the
	// paper measures only after nodes "join the overlay and warm up".
	// NeEM connections are bidirectional TCP links, so the warm overlay
	// is symmetric; Cyclon-style shuffles keep in-degrees balanced from
	// there on.
	deg := coreCfg.Membership.ViewSize
	if deg <= 0 {
		deg = 15
	}
	for i, neighbors := range symmetricGraph(cfg.Nodes, deg, r.rng) {
		peers := make([]peer.ID, 0, len(neighbors))
		for _, j := range neighbors {
			peers = append(peers, peer.ID(j))
		}
		r.nodes[i].SeedView(peers)
		r.nodes[i].Start()
	}
}

// symmetricGraph builds a random undirected graph with degree close to
// target (never above it): a Hamiltonian ring for guaranteed connectivity
// plus random matching edges. Degrees stay at or below target (15 in the
// paper), so a duplicate edge is found by scanning adj[a].
func symmetricGraph(n, target int, rng *rand.Rand) [][]int {
	adj := make([][]int, n)
	addEdge := func(a, b int) {
		if a == b || len(adj[a]) >= target || len(adj[b]) >= target || slices.Contains(adj[a], b) {
			return
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	perm := rng.Perm(n)
	for i := range perm {
		addEdge(perm[i], perm[(i+1)%n])
	}
	// Fill remaining degree with random edges; bounded retries keep this
	// terminating even when the residual graph cannot be completed.
	for tries := 0; tries < 20*n*target; tries++ {
		addEdge(rng.Intn(n), rng.Intn(n))
	}
	return adj
}

func (r *Runner) buildStrategy(self peer.ID, env *peer.Env, ewma *monitor.EWMA, table *ranking.Table) strategy.Strategy {
	cfg := r.cfg
	var mon monitor.Monitor
	if cfg.UseEWMAMonitor && ewma != nil {
		mon = ewma
	} else {
		mon = monitor.Func(func(p peer.ID) float64 { return r.pairMetric(self, p) })
	}
	isBest := func(p peer.ID) bool { return r.best[p] }
	if table != nil {
		isBest = table.IsBest
	}
	var base strategy.Strategy
	switch cfg.Strategy {
	case StrategyFlat:
		base = &strategy.Flat{P: cfg.FlatP, RNG: env.RNG}
	case StrategyTTL:
		base = &strategy.TTL{U: cfg.TTLRounds}
	case StrategyRadius:
		r.ensureOracle()
		base = &strategy.Radius{Rho: r.rho, Monitor: mon, T0: r.t0}
	case StrategyRanked:
		if table == nil {
			r.ensureOracle()
		}
		base = &strategy.Ranked{Self: self, IsBest: isBest}
	case StrategyHybrid:
		r.ensureOracle()
		base = &strategy.Hybrid{
			Self: self, IsBest: isBest,
			Rho: r.rho, U: cfg.TTLRounds, Monitor: mon, T0: r.t0,
		}
	default:
		panic(fmt.Sprintf("sim: unknown strategy %v", cfg.Strategy))
	}
	if cfg.Noise > 0 {
		return &strategy.Noisy{Base: base, O: cfg.Noise, RNG: env.RNG, C: r.globalEagerRate()}
	}
	return base
}

// globalEagerRate returns the system-wide probability that Eager? is true
// under the configured strategy — the paper's constant c (§4.3), "set such
// that the overall probability of Eager? returning true is unchanged".
// Strategies without a closed form return -1 and fall back to a per-node
// running estimate.
func (r *Runner) globalEagerRate() float64 {
	cfg := r.cfg
	switch cfg.Strategy {
	case StrategyFlat:
		return cfg.FlatP
	case StrategyRadius:
		// ρ sits at this quantile of the pairwise metric distribution,
		// so that fraction of (sender, target) pairs is eager.
		return cfg.RadiusQuantile
	case StrategyRanked:
		// Eager iff either endpoint is best.
		beta := cfg.BestFraction
		return 1 - (1-beta)*(1-beta)
	default:
		return -1
	}
}

// Best reports whether a node is in the oracle best set.
func (r *Runner) Best(p peer.ID) bool {
	r.ensureOracle()
	return r.best[p]
}

// Rho returns the radius threshold derived from the oracle.
func (r *Runner) Rho() float64 {
	r.ensureOracle()
	return r.rho
}

// Matrix exposes the client latency matrix (for tests and monitors).
func (r *Runner) Matrix() *topology.Matrix { return r.matrix }

// Network exposes the underlying emulator (for failure tests).
func (r *Runner) Network() *emunet.Network { return r.net }

// Nodes exposes the protocol nodes.
func (r *Runner) Nodes() []*core.Node { return r.nodes }

// Warmup advances the simulation long enough for shuffles to randomise the
// seeded views, mirroring the paper's warm-up phase. Runs using the
// run-time monitor or the gossip ranking warm up longer, so pings populate
// the EWMA estimators and score samples spread before measurements begin.
func (r *Runner) Warmup() {
	warm := 5 * time.Second
	if r.cfg.UseEWMAMonitor || r.cfg.UseGossipRanking {
		warm = 30 * time.Second
	}
	r.net.Run(r.net.Now() + warm)
}

// MulticastFrom multicasts payload from the given node immediately and
// returns the message identifier. Use RunFor afterwards to let the
// dissemination play out in virtual time.
func (r *Runner) MulticastFrom(node int, payload []byte) ids.ID {
	r.multicasts.Inc()
	return r.nodes[node].Multicast(payload)
}

// RunFor advances virtual time by d.
func (r *Runner) RunFor(d time.Duration) {
	r.net.Run(r.net.Now() + d)
}

// Checkpoint copies the cumulative trace counters and link loads, so
// callers can diff interval-scoped quantities (link loads, eager/lazy
// splits, control traffic) across phases of a run. It is O(connections),
// never O(deliveries) — safe to take at every phase boundary of a
// 10k-node run.
func (r *Runner) Checkpoint() trace.Checkpoint {
	return r.tracer.Checkpoint()
}

// MessageStats exposes the per-message trace aggregates in multicast
// order — the data every derived metric is computed from. Treat the
// aggregates as a read-only view; they share state with the collector.
func (r *Runner) MessageStats() []trace.MsgStats {
	return r.tracer.MessageStats()
}

// DissTracer exposes the sampling dissemination tracer, or nil when
// Config.TraceSample was zero.
func (r *Runner) DissTracer() *disstrace.Tracer { return r.diss }

// TreeReport computes (and caches) the sampled dissemination-tree
// report, or nil when tracing was off. Call after the run has drained.
func (r *Runner) TreeReport() *disstrace.TreeReport {
	if r.diss == nil {
		return nil
	}
	return r.diss.Report()
}

// Fail silences a node, emulating its crash.
func (r *Runner) Fail(node int) {
	r.net.Silence(node)
	r.failed[peer.ID(node)] = true
}

// Leave removes a node gracefully: its periodic tasks stop and its traffic
// is dropped. With the paper's unreliable-transport assumption a graceful
// departure and a crash look identical to peers (no leave message exists);
// the distinct entry point keeps scenario intent readable and leaves room
// for an announced-departure protocol.
func (r *Runner) Leave(node int) {
	r.nodes[node].Stop()
	r.net.Silence(node)
	r.failed[peer.ID(node)] = true
}

// Failed reports whether the node has been silenced.
func (r *Runner) Failed(node int) bool {
	return r.failed[peer.ID(node)]
}

// Live returns the original (non-joiner) nodes that have not failed or
// left, in ascending id order.
func (r *Runner) Live() []int {
	var live []int
	for i := 0; i < r.cfg.Nodes; i++ {
		if !r.failed[peer.ID(i)] {
			live = append(live, i)
		}
	}
	return live
}

// LiveAll returns every live participant in ascending id order: original
// nodes that have not failed or left, plus joiners that entered the
// overlay and are still up. Scenario traffic and churn draw from this
// set, so joiners send and die like everyone else once they are in.
func (r *Runner) LiveAll() []int {
	live := r.Live()
	for i := r.cfg.Nodes; i < r.cfg.Nodes+r.cfg.LateJoiners; i++ {
		id := peer.ID(i)
		if _, joined := r.joinedAt[id]; joined && !r.failed[id] {
			live = append(live, i)
		}
	}
	return live
}

// RankedNodes returns the client ids ordered best-first by the oracle
// metric — the order the paper's §6.3 "best" failure mode kills in. The
// ranking is computed once, on first use; callers must not mutate the
// returned slice.
func (r *Runner) RankedNodes() []peer.ID {
	r.ensureOracle()
	return r.ranked
}

// Join starts a provisioned-but-idle node (index >= Config.Nodes, see
// Config.LateJoiners) and introduces it to the overlay through contact,
// recording the join time for coverage accounting.
func (r *Runner) Join(node, contact int) {
	id := peer.ID(node)
	r.joinedAt[id] = r.net.Now()
	r.nodes[node].Start()
	r.nodes[node].Join(peer.ID(contact))
}

// JoinedAt returns the virtual time a late joiner entered the overlay, or
// false for original nodes.
func (r *Runner) JoinedAt(node int) (time.Duration, bool) {
	at, ok := r.joinedAt[peer.ID(node)]
	return at, ok
}
