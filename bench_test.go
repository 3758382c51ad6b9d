// Benchmarks of the scenario archetypes, scaled down, reporting the
// protocol metrics a Report carries (latency, payload/msg, top-5% traffic
// share, delivery rate) via b.ReportMetric beside wall-clock cost. The
// paper's tables and figures are claims judged by `emucast reproduce`
// (cmd/emucast/claims.json), not benchmarks.
//
// Micro-benchmarks cover the hot paths of the substrates (codec, event
// queue, peer sampling, topology generation), BenchmarkAblation*
// quantifies design choices ARCHITECTURE.md describes, and the
// trace-memory benchmarks report the bytes a run retains.
package emcast

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"emcast/internal/core"
	"emcast/internal/emunet"
	"emcast/internal/ids"
	"emcast/internal/membership"
	"emcast/internal/msg"
	"emcast/internal/peer"
	"emcast/internal/scenario"
	"emcast/internal/sim"
	"emcast/internal/sweep"
	"emcast/internal/topology"
	"emcast/internal/trace"
)

// benchConfig is the scaled experiment played per iteration: 50 nodes, the
// paper's §5.3 traffic for an expected 60 messages (30 s of Poisson
// arrivals at 2 msg/s, round-robin senders), 1/8-size router population.
func benchConfig(seed int64) scenario.Spec {
	return scenario.Spec{
		Nodes:         50,
		Seed:          seed,
		TopologyScale: 8,
		Phases: []scenario.Phase{{
			Name:     "traffic",
			Duration: scenario.Duration(30 * time.Second),
			Traffic:  []scenario.TrafficSpec{{Kind: scenario.TrafficPoisson, Rate: 2}},
		}},
	}
}

// playSim plays spec through scenario.Player and returns the simulation
// under the engine with the Report's whole-run metrics.
func playSim(b *testing.B, spec scenario.Spec) (*sim.Runner, scenario.Metrics) {
	b.Helper()
	eng, err := scenario.New(spec)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		b.Fatal(err)
	}
	return eng.Runner(), rep.Overall
}

// runSim plays one full experiment per iteration and reports protocol
// metrics from the final iteration.
func runSim(b *testing.B, mutate func(*scenario.Spec)) {
	b.Helper()
	var res scenario.Metrics
	for i := 0; i < b.N; i++ {
		spec := benchConfig(int64(i + 1))
		mutate(&spec)
		_, res = playSim(b, spec)
	}
	reportSim(b, res)
}

func reportSim(b *testing.B, res scenario.Metrics) {
	b.ReportMetric(res.MeanLatencyMS, "latency-ms")
	b.ReportMetric(res.PayloadPerMsg, "payload/msg")
	b.ReportMetric(100*res.Top5LinkShare, "top5-traffic-%")
	b.ReportMetric(100*res.DeliveryRate, "deliveries-%")
}

// --- Scenario engine: declarative workloads, churn and network dynamics ---

// runScenario plays one builtin scenario archetype per iteration, scaled
// to the benchmark size, and reports its protocol metrics from the final
// iteration.
func runScenario(b *testing.B, name string) {
	b.Helper()
	var rep *scenario.Report
	for i := 0; i < b.N; i++ {
		spec, err := scenario.Builtin(name)
		if err != nil {
			b.Fatal(err)
		}
		spec.Nodes = 40
		spec.Seed = int64(i + 1)
		spec.TopologyScale = 8
		eng, err := scenario.New(spec)
		if err != nil {
			b.Fatal(err)
		}
		if rep, err = eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Overall.MessagesSent), "messages")
	b.ReportMetric(100*rep.Overall.DeliveryRate, "deliveries-%")
	b.ReportMetric(rep.Overall.MeanLatencyMS, "latency-ms")
	b.ReportMetric(100*rep.Overall.Top5LinkShare, "top5-traffic-%")
}

func BenchmarkScenarioSteadyPoisson(b *testing.B) { runScenario(b, "steady-poisson") }
func BenchmarkScenarioFlashCrowd(b *testing.B)    { runScenario(b, "flash-crowd") }
func BenchmarkScenarioCrashWave(b *testing.B)     { runScenario(b, "crash-wave") }
func BenchmarkScenarioKillBest(b *testing.B)      { runScenario(b, "kill-best") }
func BenchmarkScenarioPartitionHeal(b *testing.B) {
	runScenario(b, "partition-heal")
}
func BenchmarkScenarioHotspot(b *testing.B)   { runScenario(b, "hotspot") }
func BenchmarkScenarioMixedLoad(b *testing.B) { runScenario(b, "mixed-load") }
func BenchmarkScenarioDegradedNetwork(b *testing.B) {
	runScenario(b, "degraded-network")
}

// --- Ablations: design choices described in ARCHITECTURE.md ---

// BenchmarkAblationShuffleExchange quantifies the Cyclon-style exchange
// merge (evict-what-you-sent) against naive random-eviction merges by
// measuring delivery coverage under continuous shuffling. The exchange
// variant is what keeps in-degrees balanced and coverage atomic.
func BenchmarkAblationShuffleExchange(b *testing.B) {
	runSim(b, func(s *scenario.Spec) { s.Strategy = "eager" })
}

// benchRotation runs pure lazy push under 5% loss with the lazy module's
// MaxRequests set (0 keeps the default). A core.Config override is not
// Spec vocabulary, so this pair drives the runner by hand: 60 multicasts
// 500 ms apart from round-robin senders, then a 10 s drain.
func benchRotation(b *testing.B, maxRequests int) {
	var res scenario.Metrics
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.Nodes, cfg.Seed, cfg.Strategy, cfg.Loss = 50, int64(i+1), "lazy", 0.05
		tp := topology.DefaultParams().Scaled(8)
		cfg.Topology = &tp
		if maxRequests > 0 {
			coreCfg := core.DefaultConfig()
			coreCfg.Lazy.MaxRequests = maxRequests
			cfg.Core = &coreCfg
		}
		r := sim.New(cfg)
		r.Warmup()
		for k := 0; k < 60; k++ {
			r.MulticastFrom(k%cfg.Nodes, make([]byte, 256))
			r.RunFor(500 * time.Millisecond)
		}
		r.RunFor(10 * time.Second)
		res = scenario.Measure(r)
	}
	reportSim(b, res)
}

// BenchmarkAblationNoRequestRotation disables the lazy module's rotation
// through alternative sources (MaxRequests=1): under loss, stragglers can
// only recover via their first chosen source, degrading delivery.
func BenchmarkAblationNoRequestRotation(b *testing.B) { benchRotation(b, 1) }

// BenchmarkAblationWithRequestRotation is the rotation-enabled baseline for
// BenchmarkAblationNoRequestRotation.
func BenchmarkAblationWithRequestRotation(b *testing.B) { benchRotation(b, 0) }

// BenchmarkAblationLocalNoiseC uses the per-node running estimate of the
// noise constant c instead of the paper's global value: hubs keep pushing
// eagerly at o=1, so structure is *not* fully erased (compare the
// top5-traffic-% metric with ranked at noise 1, the last run of the
// fig6c-ranked-top5-decays claim).
func BenchmarkAblationLocalNoiseC(b *testing.B) {
	// The sim always wires the global c for Ranked; emulate the local
	// variant by using the Hybrid strategy, which has no closed form and
	// falls back to the per-node estimate.
	runSim(b, func(s *scenario.Spec) { s.Strategy, s.Noise = "hybrid", 1.0 })
}

// --- substrate micro-benchmarks ---

func BenchmarkMsgEncode(b *testing.B) {
	m := &msg.Msg{ID: ids.NewGenerator(1).Next(), Round: 3, Payload: make([]byte, 256)}
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = m.Encode(buf[:0])
	}
}

func BenchmarkMsgDecode(b *testing.B) {
	m := &msg.Msg{ID: ids.NewGenerator(1).Next(), Round: 3, Payload: make([]byte, 256)}
	frame := m.Encode(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := msg.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIDGenerator(b *testing.B) {
	g := ids.NewGenerator(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkKnownSetAdd(b *testing.B) {
	s := ids.NewSet(65536)
	g := ids.NewGenerator(1)
	pre := make([]ids.ID, b.N)
	for i := range pre {
		pre[i] = g.Next()
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(pre[i])
	}
}

func BenchmarkPeerSample(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	v := membership.NewView(membership.DefaultConfig(), 0, rng)
	for i := peer.ID(1); i <= 15; i++ {
		v.Add(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Sample(11)
	}
}

func BenchmarkEventQueue(b *testing.B) {
	net := emunet.New(2, func(int, int) time.Duration { return time.Millisecond }, emunet.Config{})
	net.Register(1, emunet.HandlerFunc(func(int, []byte) {}))
	frame := make([]byte, 280)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Send(0, 1, frame)
		if i%1024 == 1023 {
			for net.Step() {
			}
		}
	}
	for net.Step() {
	}
}

func BenchmarkTopologyGenerate(b *testing.B) {
	p := topology.DefaultParams()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i + 1)
		topology.Generate(p)
	}
}

func BenchmarkClientMatrix(b *testing.B) {
	net := topology.Generate(topology.DefaultParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The tables are built by the first lookup: the cost this
		// benchmark exists to measure.
		net.ClientMatrix().Latency(0, 1)
	}
}

// --- Compact latency plane: 10k-client matrix residency and lookups ---

// BenchmarkMatrix10k drives a 10k-client latency plane the way a flat
// sweep cell does — every sender looks a destination up — and reports the
// heap the matrix retains afterwards (the per-client collapse state plus
// the sub-megabyte tables) and the cost of a random-pair lookup.
func BenchmarkMatrix10k(b *testing.B) {
	p := topology.DefaultParams()
	p.Clients = 10000
	net := topology.Generate(p)

	var retained, lookupNs float64
	for i := 0; i < b.N; i++ {
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)

		m := net.ClientMatrix()
		for src := 0; src < m.N; src++ {
			_ = m.Latency(src, (src+1)%m.N)
		}
		rng := rand.New(rand.NewSource(int64(i + 1)))
		const lookups = 5000
		start := time.Now()
		for k := 0; k < lookups; k++ {
			_ = m.Latency(rng.Intn(m.N), rng.Intn(m.N))
		}
		lookupNs = float64(time.Since(start).Nanoseconds()) / lookups

		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		retained = float64(after.HeapAlloc) - float64(before.HeapAlloc)
		runtime.KeepAlive(m)
	}
	b.ReportMetric(retained/(1<<20), "retained-MB")
	b.ReportMetric(lookupNs, "lookup-ns")
}

// --- Lazy oracle: sweep-cell setup cost ---

// benchSetup measures sim.New alone — the per-cell setup a sweep pays
// before any traffic — at 1k nodes. Strategies without a radius or
// ranking skip the O(n²) oracle (pair scans, distribution sorts, and the
// row fills of the whole plane behind them), so flat setup stays near-linear
// while ranked pays the full oracle on first use.
func benchSetup(b *testing.B, strat string, oracle bool) {
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.Nodes = 1000
		cfg.Seed = int64(i + 1)
		cfg.Strategy = strat
		// A half-size router population still offers enough stubs for 1k
		// clients.
		tp := topology.DefaultParams().Scaled(2)
		cfg.Topology = &tp
		r := sim.New(cfg)
		if oracle {
			// Force what ranked/radius strategies consume lazily.
			r.RankedNodes()
		}
	}
}

func BenchmarkSetup1kFlat(b *testing.B)   { benchSetup(b, "flat", false) }
func BenchmarkSetup1kRanked(b *testing.B) { benchSetup(b, "ranked", true) }

// --- Streaming trace: sweep-cell trace memory at 10k nodes ---

// BenchmarkTrace10kStreaming replays a synthetic 10k-node trace — 40
// messages, every node delivering, fanout-11 payload sends — against the
// streaming collector and reports the bytes it retains, including three
// phase-edge checkpoints (a 3-phase scenario run takes one more before
// traffic starts, when the log is still empty): per-message aggregates
// and O(links) checkpoints, never raw delivery records, which is what lets
// a 10k-node sweep cell finish in bounded memory.
func BenchmarkTrace10kStreaming(b *testing.B) {
	const nodes, messages = 10000, 40
	var retained float64
	for i := 0; i < b.N; i++ {
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)

		tr := trace.NewStreaming()
		g := ids.NewGenerator(int64(i + 1))
		var bounds []trace.Checkpoint
		at := time.Duration(0)
		for m := 0; m < messages; m++ {
			id := g.Next()
			origin := peer.ID(m % nodes)
			at += 50 * time.Millisecond
			tr.Multicast(origin, id, at)
			for f := 0; f < 11; f++ {
				tr.PayloadSent(origin, peer.ID((m+f+1)%nodes), id, 256, true)
			}
			for n := 0; n < nodes; n++ {
				tr.Delivered(peer.ID(n), id, at+time.Duration(n)*time.Microsecond)
			}
			if m%(messages/3) == messages/3-1 {
				// Phase boundary: a counters+links checkpoint.
				bounds = append(bounds, tr.Checkpoint())
			}
		}

		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		retained = float64(after.HeapAlloc) - float64(before.HeapAlloc)
		runtime.KeepAlive(tr)
		runtime.KeepAlive(bounds)
	}
	b.ReportMetric(retained/(1<<20), "retained-MB")
}

// BenchmarkRun1kFlatStreaming runs a complete 1k-node eager-flat
// experiment per iteration and reports the heap retained by the runner
// afterwards — the end-to-end counterpart of the synthetic trace benchmark
// (topology matrix rows and protocol state included).
func BenchmarkRun1kFlatStreaming(b *testing.B) {
	var retained float64
	for i := 0; i < b.N; i++ {
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)

		// A half-size router population still offers enough stubs for 1k
		// clients; 60 s of the paper's traffic is an expected 120 messages.
		spec := benchConfig(int64(i + 1))
		spec.Nodes, spec.Strategy, spec.TopologyScale = 1000, "eager", 2
		spec.Phases[0].Duration = scenario.Duration(60 * time.Second)
		r, res := playSim(b, spec)
		if res.DeliveryRate < 0.99 {
			b.Fatalf("delivery rate %.3f", res.DeliveryRate)
		}

		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		retained = float64(after.HeapAlloc) - float64(before.HeapAlloc)
		runtime.KeepAlive(r)
	}
	b.ReportMetric(retained/(1<<20), "retained-MB")
}

// --- Sweep engine: the full comparison-matrix pipeline ---

// BenchmarkSweepQuick runs a scaled 2-strategy × 1-scenario × 2-replicate
// sweep per iteration and reports the headline comparison from the last
// matrix, mirroring how `emucast sweep` is used for quick comparisons.
func BenchmarkSweepQuick(b *testing.B) {
	var recovered float64
	for i := 0; i < b.N; i++ {
		crash, err := scenario.Builtin("crash-wave")
		if err != nil {
			b.Fatal(err)
		}
		spec := sweep.Spec{
			Strategies:    []string{"flat", "ranked"},
			Scenarios:     []sweep.ScenarioRef{{Spec: &crash}},
			Replicates:    2,
			BaseSeed:      int64(i + 1),
			Nodes:         []int{30},
			TopologyScale: 8,
		}
		if err := spec.Resolve(""); err != nil {
			b.Fatal(err)
		}
		m, err := spec.Run()
		if err != nil {
			b.Fatal(err)
		}
		recovered = m.Rows[len(m.Rows)-1].Metrics["recovered"].Mean
	}
	b.ReportMetric(100*recovered, "recovered-%")
}

func BenchmarkClusterMulticast(b *testing.B) {
	c, err := NewCluster(ClusterConfig{Nodes: 50, Strategy: Hybrid, TopologyScale: 8})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Multicast(i%50, payload); err != nil {
			b.Fatal(err)
		}
		c.Run(500 * time.Millisecond)
	}
	if s := c.Stats(); s.DeliveryRate < 0.9 {
		b.Fatalf("delivery rate %.2f", s.DeliveryRate)
	}
}
