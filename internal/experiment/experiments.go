package experiment

import (
	"fmt"
	"math"
	"strings"
	"time"

	"emcast/internal/scenario"
	"emcast/internal/sim"
	"emcast/internal/topology"
)

// Options scales experiments. The zero value is filled with the paper's
// full-size setup; tests and benchmarks shrink it.
type Options struct {
	// Nodes is the number of protocol participants (paper: 100).
	Nodes int
	// Messages per run (paper: 400).
	Messages int
	// Seed for all randomness.
	Seed int64
	// TopologyScale divides the router population (1 = paper-size,
	// ~3000 routers). Larger values generate smaller networks faster
	// without changing client-path statistics much.
	TopologyScale int
}

func (o Options) fill() Options {
	if o.Nodes <= 0 {
		o.Nodes = 100
	}
	if o.Messages <= 0 {
		o.Messages = 400
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TopologyScale <= 0 {
		o.TopologyScale = 1
	}
	return o
}

// spec is the paper's workload (§5.3: 400 messages of 256 bytes, one every
// 500 ms on average, senders round-robin) under one strategy: a single
// phase of Messages/2 seconds of Poisson arrivals at 2 msg/s, so Messages
// is the expected count, not the exact one.
func (o Options) spec(strategy string) scenario.Spec {
	return scenario.Spec{
		Name:          strategy,
		Seed:          o.Seed,
		Nodes:         o.Nodes,
		Strategy:      strategy,
		TopologyScale: o.TopologyScale,
		Phases: []scenario.Phase{{
			Name:     "traffic",
			Duration: scenario.Duration(time.Duration(o.Messages) * time.Second / 2),
			Traffic:  []scenario.TrafficSpec{{Kind: scenario.TrafficPoisson, Rate: 2}},
		}},
	}
}

// play runs one spec through scenario.Player on the emulator and returns
// the Report's whole-run metrics with the simulation under it, which
// figures ask only for what a Report does not carry: the low/best payload
// split and the link loads. A spec built in this file that the engine
// refuses is a bug in this file.
func play(spec scenario.Spec) (scenario.Metrics, *sim.Runner) {
	eng, err := scenario.New(spec)
	var rep *scenario.Report
	if err == nil {
		rep, err = eng.Run()
	}
	if err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
	return rep.Overall, eng.Runner()
}

// summary renders a run in one line, as Fig. 4's labels and S1's note
// print it: the strategy by its kind (eager and lazy print as flat, which
// they are at p=1 and p=0) and the mean latency rounded to the
// millisecond.
func summary(spec scenario.Spec, m scenario.Metrics, r *sim.Runner) string {
	kind := spec.Strategy
	if kind == "eager" || kind == "lazy" {
		kind = "flat"
	}
	low, best := r.PayloadSplit()
	return fmt.Sprintf(
		"%s: latency=%v payload/msg=%.2f (low=%.2f best=%.2f) deliveries=%.1f%% top5=%.1f%% dup=%d",
		kind, time.Duration(math.Round(m.MeanLatencyMS*1e6)).Round(time.Millisecond),
		m.PayloadPerMsg, low, best, 100*m.DeliveryRate, 100*m.Top5LinkShare, m.Duplicates,
	)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// TopologyStats reproduces the §5.1 network model properties table.
func TopologyStats(o Options) *Figure {
	o = o.fill()
	tp := topology.DefaultParams().Scaled(o.TopologyScale)
	tp.Clients = o.Nodes
	tp.Seed = o.Seed
	net := topology.Generate(tp)
	s := net.ClientMatrix().Stats(len(net.Nodes) - len(net.Clients))

	f := &Figure{
		ID:     "T1",
		Title:  "Network model properties (paper §5.1)",
		XLabel: "paper value",
		YLabel: "measured value",
	}
	f.AddPoint("mean hop distance", Point{X: 5.54, Y: s.MeanHops, Label: "hops"})
	f.AddPoint("frac pairs within 5-6 hops", Point{X: 0.7428, Y: s.FracHops5to6, Label: "fraction"})
	f.AddPoint("mean end-to-end latency (ms)", Point{X: 49.83, Y: ms(s.MeanLatency), Label: "ms"})
	f.AddPoint("frac pairs within 39-60 ms", Point{X: 0.50, Y: s.FracLat39to60, Label: "fraction"})
	f.AddPoint("network nodes", Point{X: 3037, Y: float64(s.NetworkNodes), Label: "routers"})
	return f
}

// EmergentStructure reproduces Fig. 4: the share of payload traffic carried
// by the top 5% most used connections under the eager baseline, Radius and
// Ranked strategies, using the pseudo-geographic oracle (paper §6.1:
// eager 7%, Radius 37%, Ranked 30%).
func EmergentStructure(o Options) *Figure {
	o = o.fill()
	f := &Figure{
		ID:     "Fig4",
		Title:  "Emergent structure: share of traffic on top-5% connections",
		XLabel: "paper share (%)",
		YLabel: "measured share (%)",
	}
	share := func(name, strategy string, paper float64) float64 {
		spec := o.spec(strategy)
		spec.DistanceMetric = true
		res, r := play(spec)
		f.AddPoint(name, Point{X: paper, Y: 100 * res.Top5LinkShare, Label: summary(spec, res, r)})
		return 100 * res.Top5LinkShare
	}
	eager := share("flat (eager)", "eager", 7)
	radius := share("radius", "radius", 37)
	ranked := share("ranked", "ranked", 30)
	f.Note("structure ordering (want radius > ranked > flat): %.1f%% / %.1f%% / %.1f%%", radius, ranked, eager)
	return f
}

// StructureMap exports the raw per-connection payload loads with node
// plane coordinates for the three Fig. 4 configurations — the data behind
// the paper's emergent-structure map plots — as CSV.
func StructureMap(o Options) string {
	o = o.fill()
	var b strings.Builder
	b.WriteString("strategy,nodeA,nodeB,ax,ay,bx,by,payloads,bytes\n")
	for _, strategy := range []string{"eager", "radius", "ranked"} {
		spec := o.spec(strategy)
		spec.DistanceMetric = true
		_, r := play(spec)
		for _, l := range r.LinkLoads() {
			fmt.Fprintf(&b, "%s,%d,%d,%.1f,%.1f,%.1f,%.1f,%d,%d\n",
				strategy, l.A, l.B, l.AX, l.AY, l.BX, l.BY, l.Payloads, l.Bytes)
		}
	}
	return b.String()
}

// TradeoffCurves reproduces Fig. 5(a): the latency vs payload/msg
// trade-off of Flat (p sweep), TTL (u sweep), Radius (radius sweep) and
// Ranked (best-fraction sweep, with the "low" series restricted to regular
// nodes).
func TradeoffCurves(o Options) *Figure {
	o = o.fill()
	f := &Figure{
		ID:     "Fig5a",
		Title:  "Latency/bandwidth trade-off",
		XLabel: "payload/msg",
		YLabel: "latency (ms)",
	}
	// Flat: p from pure lazy to pure eager (paper: 480 ms @ 1 down to
	// 227 ms @ 11). The end points go by name: a flat_p of 0 means "the
	// default 0.5", not lazy.
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		spec := o.spec("flat")
		spec.FlatP = p
		switch p {
		case 0:
			spec.Strategy = "lazy"
		case 1:
			spec.Strategy = "eager"
		}
		res, _ := play(spec)
		f.AddPoint("flat", Point{X: res.PayloadPerMsg, Y: res.MeanLatencyMS, Label: fmt.Sprintf("p=%.2f", p)})
	}
	// TTL: eager for the first u rounds (paper: ~250 ms @ ~1.7).
	for _, u := range []int{1, 2, 3, 4} {
		spec := o.spec("ttl")
		spec.TTLRounds = u
		res, _ := play(spec)
		f.AddPoint("TTL", Point{X: res.PayloadPerMsg, Y: res.MeanLatencyMS, Label: fmt.Sprintf("u=%d", u)})
	}
	// Radius: quantile sweep.
	for _, q := range []float64{0.05, 0.10, 0.20, 0.40} {
		spec := o.spec("radius")
		spec.RadiusQuantile = q
		res, _ := play(spec)
		f.AddPoint("radius", Point{X: res.PayloadPerMsg, Y: res.MeanLatencyMS, Label: fmt.Sprintf("q=%.2f", q)})
	}
	// Ranked: best-fraction sweep; "(all)" uses the overall payload/msg,
	// "(low)" the regular-node contribution.
	for _, b := range []float64{0.05, 0.10, 0.20, 0.40} {
		spec := o.spec("ranked")
		spec.BestFraction = b
		res, r := play(spec)
		low, _ := r.PayloadSplit()
		label := fmt.Sprintf("best=%.0f%%", 100*b)
		f.AddPoint("ranked (all)", Point{X: res.PayloadPerMsg, Y: res.MeanLatencyMS, Label: label})
		f.AddPoint("ranked (low)", Point{X: low, Y: res.MeanLatencyMS, Label: label})
	}
	return f
}

// Reliability reproduces Fig. 5(b): mean deliveries (% of live nodes) as an
// increasing fraction of nodes is silenced before traffic starts, for the
// eager baseline with random failures and the Ranked strategy with random
// and best-first failures (paper §6.3: no noticeable impact in either).
func Reliability(o Options) *Figure {
	o = o.fill()
	f := &Figure{
		ID:     "Fig5b",
		Title:  "Average deliveries under node failures",
		XLabel: "dead nodes (%)",
		YLabel: "mean deliveries (%)",
	}
	for _, v := range []struct{ name, strategy, kill string }{
		{"flat/random", "eager", scenario.ChurnCrashWave},
		{"ranked/random", "ranked", scenario.ChurnCrashWave},
		{"ranked/ranked", "ranked", scenario.ChurnKillBest},
	} {
		for _, frac := range []float64{0, 0.10, 0.20, 0.40, 0.60, 0.80} {
			spec := o.spec(v.strategy)
			if frac > 0 {
				// Silenced after warm-up, before traffic starts.
				spec.Phases = append([]scenario.Phase{{
					Name:     "fail",
					Duration: scenario.Duration(time.Second),
					Churn:    []scenario.ChurnSpec{{Kind: v.kill, Fraction: frac}},
				}}, spec.Phases...)
			}
			res, _ := play(spec)
			f.AddPoint(v.name, Point{
				X:     100 * frac,
				Y:     100 * res.DeliveryRate,
				Label: fmt.Sprintf("atomic=%.0f%%", 100*res.AtomicRate),
			})
		}
	}
	return f
}

// HybridCurves reproduces Fig. 5(c): the §6.4 hybrid strategy against TTL,
// reporting both the overall payload/msg ("combined (all)") and the regular
// node contribution ("combined (low)"; paper: latency 379→245 ms while low
// nodes pay only 1.01→1.20 payloads/msg).
func HybridCurves(o Options) *Figure {
	o = o.fill()
	f := &Figure{
		ID:     "Fig5c",
		Title:  "Hybrid strategy trade-off",
		XLabel: "payload/msg",
		YLabel: "latency (ms)",
	}
	for _, u := range []int{1, 2, 3, 4} {
		spec := o.spec("ttl")
		spec.TTLRounds = u
		res, _ := play(spec)
		f.AddPoint("TTL", Point{X: res.PayloadPerMsg, Y: res.MeanLatencyMS, Label: fmt.Sprintf("u=%d", u)})
	}
	for _, q := range []float64{0.05, 0.10, 0.20} {
		for _, u := range []int{1, 2} {
			spec := o.spec("hybrid")
			spec.RadiusQuantile, spec.TTLRounds = q, u
			res, r := play(spec)
			low, best := r.PayloadSplit()
			label := fmt.Sprintf("q=%.2f,u=%d best=%.2f", q, u, best)
			f.AddPoint("combined (all)", Point{X: res.PayloadPerMsg, Y: res.MeanLatencyMS, Label: label})
			f.AddPoint("combined (low)", Point{X: low, Y: res.MeanLatencyMS, Label: label})
		}
	}
	return f
}

// NoiseSweep reproduces Fig. 6(a-c): degradation of the Radius and Ranked
// structures as the noise ratio grows, measured as payload/msg (6a, flat in
// total but rising for regular nodes), latency (6b) and top-5%-link traffic
// share (6c, converging to ~5%).
func NoiseSweep(o Options) (payload, latency, structure *Figure) {
	o = o.fill()
	payload = &Figure{
		ID: "Fig6a", Title: "Payload/msg vs noise",
		XLabel: "noise (%)", YLabel: "payload/msg",
	}
	latency = &Figure{
		ID: "Fig6b", Title: "Latency vs noise",
		XLabel: "noise (%)", YLabel: "latency (ms)",
	}
	structure = &Figure{
		ID: "Fig6c", Title: "Top-5% link traffic vs noise",
		XLabel: "noise (%)", YLabel: "traffic (%)",
	}
	for _, name := range []string{"radius", "ranked"} {
		for _, noise := range []float64{0, 0.25, 0.50, 0.75, 1.0} {
			spec := o.spec(name)
			spec.Noise = noise
			res, r := play(spec)
			x := 100 * noise
			payload.AddPoint(name, Point{X: x, Y: res.PayloadPerMsg})
			if name == "ranked" {
				low, _ := r.PayloadSplit()
				payload.AddPoint("ranked (low)", Point{X: x, Y: low})
			}
			latency.AddPoint(name, Point{X: x, Y: res.MeanLatencyMS})
			structure.AddPoint(name, Point{X: x, Y: 100 * res.Top5LinkShare})
		}
	}
	return payload, latency, structure
}

// RunStats reproduces the §5.4 per-run statistics for the eager baseline
// (paper, 100 nodes: 40000 messages delivered, 440000 packets transmitted).
// The paper's row is scaled by the messages the run actually sent.
func RunStats(o Options) *Figure {
	o = o.fill()
	spec := o.spec("eager")
	res, r := play(spec)
	f := &Figure{
		ID:     "S1",
		Title:  "Run statistics, eager push (paper §5.4)",
		XLabel: "paper value (100 nodes, 400 msgs)",
		YLabel: "measured value",
	}
	scale := float64(o.Nodes*res.MessagesSent) / float64(100*400)
	f.AddPoint("messages delivered", Point{X: 40000 * scale, Y: float64(res.Deliveries)})
	f.AddPoint("payload packets transmitted", Point{X: 440000 * scale, Y: float64(res.EagerPayloads + res.LazyPayloads)})
	f.Note("%s", summary(spec, res, r))
	return f
}

// Scale200 reproduces the paper's §5.3 200-node validation: "the
// configurations that result in lower bandwidth consumption, which are the
// key results of this paper, were also simulated with 200 virtual nodes".
// It runs the low-bandwidth configurations (pure lazy, TTL, Ranked) at the
// base population and at twice that, checking that payload/msg stays at
// its low level as the group grows.
func Scale200(o Options) *Figure {
	o = o.fill()
	f := &Figure{
		ID:     "S2",
		Title:  "Low-bandwidth configurations at 2x nodes (paper §5.3)",
		XLabel: "nodes",
		YLabel: "payload/msg",
	}
	for _, nodes := range []int{o.Nodes, 2 * o.Nodes} {
		for _, v := range []struct{ name, strategy string }{{"lazy", "lazy"}, {"TTL u=2", "ttl"}, {"ranked", "ranked"}} {
			spec := o.spec(v.strategy)
			spec.Nodes = nodes
			res, _ := play(spec)
			f.AddPoint(v.name, Point{
				X:     float64(nodes),
				Y:     res.PayloadPerMsg,
				Label: fmt.Sprintf("latency=%.0fms deliveries=%.1f%%", res.MeanLatencyMS, 100*res.DeliveryRate),
			})
		}
	}
	return f
}

// ApproximateRanking is an extension experiment (A1) beyond the paper's
// figures: it compares the Ranked strategy under three ranking sources —
// the paper's oracle (global model knowledge), the fully decentralized
// gossip-based ranking the paper proposes in §4.1 (run-time EWMA monitors
// feeding epidemically spread centrality scores), and that pipeline with
// the Eager? metric also taken from the run-time monitor. It substantiates
// the paper's claim that approximate rankings suffice.
func ApproximateRanking(o Options) *Figure {
	o = o.fill()
	f := &Figure{
		ID:     "A1",
		Title:  "Ranked strategy with oracle vs gossip-based ranking",
		XLabel: "payload/msg",
		YLabel: "latency (ms)",
	}
	add := func(name string, spec scenario.Spec) {
		res, r := play(spec)
		low, best := r.PayloadSplit()
		f.AddPoint(name, Point{
			X:     res.PayloadPerMsg,
			Y:     res.MeanLatencyMS,
			Label: fmt.Sprintf("top5=%.1f%% best=%.2f low=%.2f", 100*res.Top5LinkShare, best, low),
		})
	}
	spec := o.spec("ranked")
	add("ranked, oracle ranking", spec)
	spec.GossipRanking = true
	add("ranked, gossip ranking", spec)
	// The fully deployable stack: the Hybrid strategy with both its
	// inputs taken from run-time components — the radius metric from the
	// EWMA monitor and the best set from the gossip ranking.
	spec = o.spec("hybrid")
	spec.GossipRanking, spec.EWMAMonitor = true, true
	add("hybrid, gossip ranking + EWMA metric", spec)
	return f
}

// Churn is a second extension experiment (A2): nodes join through the Join
// protocol over the first half of the traffic, measuring how well late
// joiners catch up with post-join traffic under each strategy. The paper
// treats joining/warm-up as out of scope for measurements; this experiment
// confirms the overlay absorbs churn without affecting established nodes.
func Churn(o Options) *Figure {
	o = o.fill()
	f := &Figure{
		ID:     "A2",
		Title:  "Churn: late joiners catching up with post-join traffic",
		XLabel: "late joiners (% of group)",
		YLabel: "joiner coverage (%)",
	}
	for _, name := range []string{"eager", "ttl", "ranked"} {
		for _, frac := range []float64{0.1, 0.25, 0.5} {
			spec := o.spec(name)
			if joiners := int(frac * float64(o.Nodes)); joiners > 0 {
				traffic := &spec.Phases[0]
				traffic.Churn = []scenario.ChurnSpec{{
					Kind: scenario.ChurnJoinWave, Count: joiners, Over: traffic.Duration / 2,
				}}
			}
			res, _ := play(spec)
			f.AddPoint(name, Point{
				X:     100 * frac,
				Y:     100 * res.JoinerCoverage,
				Label: fmt.Sprintf("established=%.1f%%", 100*res.DeliveryRate),
			})
		}
	}
	return f
}

// All runs every experiment and returns the figures in paper order.
func All(o Options) []*Figure {
	figs := []*Figure{
		TopologyStats(o),
		EmergentStructure(o),
		TradeoffCurves(o),
		Reliability(o),
		HybridCurves(o),
	}
	a, b, c := NoiseSweep(o)
	figs = append(figs, a, b, c, RunStats(o), Scale200(o), ApproximateRanking(o), Churn(o))
	return figs
}
