package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"emcast/internal/emunet"
	"emcast/internal/obs"
	"emcast/internal/peer"
	"emcast/internal/scenario"
	"emcast/internal/stats"
	"emcast/internal/topology"
	"emcast/internal/trace"
)

// Child modes. Plain is the only one end-to-end metrics are taken from;
// the others are the extra runs the per-layer ledger needs.
const (
	modePlain   = "plain"   // product entry point, nothing attached
	modeProfile = "profile" // same, under a CPU profile and the samplers
	modeObs     = "obs"     // as profile, with the obs registry attached
	modeTraced  = "traced"  // self-assembled stack with spans at every boundary
)

// runSim plays one simulator workload through scenario.Engine, the entry
// point users have, and reads every counter afterwards through getters.
func runSim(name string, def *simDef, seed int64, mode string) (*iteration, error) {
	spec := def.spec(name, seed)
	if mode == modeObs {
		spec.Obs = obs.NewRegistry()
	}

	setupStart := time.Now()
	eng, err := scenario.New(spec)
	if err != nil {
		return nil, err
	}
	setup := time.Since(setupStart)

	var profile bytes.Buffer
	var goroutines *sampler
	profiled := mode == modeProfile || mode == modeObs
	if profiled {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return nil, err
		}
		goroutines = startSampler(func() float64 { return float64(runtime.NumGoroutine()) })
	}
	probed := probeHost()
	before := takeUsage()
	rep, err := eng.Run()
	used := takeUsage().since(before)
	host := probed()
	if profiled {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}

	it := &iteration{Workload: name, Seed: seed, Metrics: map[string]float64{}, WallS: used.wall.Seconds()}
	run := eng.Runner()
	survivors := make(map[peer.ID]bool, def.nodes)
	for i := 0; i < def.nodes; i++ {
		if !run.Failed(i) {
			survivors[peer.ID(i)] = true
		}
	}
	lastPhase := time.Duration(rep.Phases[len(rep.Phases)-1].StartMS * float64(time.Millisecond))
	simMetrics(it, simObserved{
		msgs:      run.MessageStats(),
		cp:        run.Checkpoint(),
		net:       run.Network(),
		matrix:    run.Matrix(),
		fps:       run.Footprints(),
		nodes:     def.nodes,
		survivors: survivors,
		lastPhase: lastPhase,
		lossFree:  def.loss == 0 && def.crash == 0,
	})
	it.Metrics["setup_s"] = host.reference(setup).Seconds()
	used.fill(it, it.Metrics["deliveries"], host)
	it.Metrics["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(eng)

	if profiled {
		it.Metrics["runtime.goroutines_peak"] = goroutines.stop().max
		shares, err := foldProfile(profile.Bytes())
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		for pkg, share := range shares {
			it.Metrics["cpu_share."+pkg] = share
		}
	}
	return it, nil
}

// simObserved is what a finished simulator run exposes, whether it was
// assembled by scenario.Engine or by the traced stack.
type simObserved struct {
	msgs      []trace.MsgStats
	cp        trace.Checkpoint
	net       *emunet.Network
	matrix    *topology.Matrix
	fps       []obs.Footprint
	nodes     int
	survivors map[peer.ID]bool
	lastPhase time.Duration // virtual start of the last phase
	lossFree  bool
}

// simMetrics derives the virtual-time end-to-end metrics, the counter
// ledger, the output checks and the determinism fingerprint of a finished
// simulator run.
func simMetrics(it *iteration, o simObserved) {
	const ms = float64(time.Millisecond)
	var latencies, lasts []float64
	var deliveries, expected, delivered int64
	for i := range o.msgs {
		m := &o.msgs[i]
		deliveries += int64(m.Deliveries)
		// Reliability is promised to correct processes for messages of
		// correct processes: an origin that crashes may take its message
		// with it.
		if o.survivors[m.Origin] {
			reached := m.DeliveredAmong(o.survivors)
			expected += int64(len(o.survivors))
			delivered += int64(reached)
			it.Attempted++
			if !multicastReached(reached, len(o.survivors)) {
				it.Failed++
			}
		}
		if m.Deliveries > o.nodes {
			it.failf("message %v delivered %d times to %d nodes", m.ID, m.Deliveries, o.nodes)
		}
		if m.SentAt < o.lastPhase || len(m.Latencies) == 0 {
			continue
		}
		last := 0.0
		for _, l := range m.Latencies {
			latencies = append(latencies, l/ms)
			last = max(last, l)
		}
		lasts = append(lasts, last/ms)
	}
	msgs := float64(len(o.msgs))
	it.Messages = int64(len(o.msgs))
	mt := it.Metrics
	mt["deliveries"] = float64(deliveries)
	mt["delivery_p50_ms"] = stats.Percentile(latencies, 50)
	mt["delivery_p95_ms"] = stats.Percentile(latencies, 95)
	mt["last_delivery_p50_ms"] = stats.Percentile(lasts, 50)
	mt["payload_per_delivery"] = ratio(float64(o.cp.TotalPayloads), float64(deliveries))
	mt["delivered_share"] = ratio(float64(delivered), float64(expected))

	// A loss-free gossip run still misses a node now and then (fanout 11
	// reaches all of 1000 nodes only with high probability), so the check
	// is the bound on the share, not equality with 1.
	floor := 1 - undeliveredBound
	if !o.lossFree {
		floor = 0.99
	}
	if mt["delivered_share"] < floor {
		it.failf("delivered_share %.6f below %.4f", mt["delivered_share"], floor)
	}

	events := float64(o.net.EventsProcessed)
	sched := o.net.SchedStats()
	mt["emunet.events"] = events
	mt["emunet.events_per_msg"] = ratio(events, msgs)
	mt["emunet.deliver_share"] = ratio(events-float64(o.net.TimerFires), events)
	mt["emunet.timer_share"] = ratio(float64(o.net.TimerFires), events)
	mt["emunet.sched_cascades"] = float64(sched.Cascades)
	mt["emunet.sched_sorts"] = float64(sched.Sorts)
	mt["emunet.sched_cur_inserts"] = float64(sched.CurInserts)
	mt["emunet.sched_overflow"] = float64(sched.Overflow)
	mt["emunet.sched_max_bucket"] = float64(sched.MaxBucket)
	mt["emunet.frames_lost_share"] = ratio(float64(o.net.FramesLost), float64(o.net.FramesSent))
	lazyLedger(mt, o.cp.Counters, msgs)
	for _, fp := range o.fps {
		mt[fp.Subsystem+".footprint_kb_per_node"] = float64(fp.Bytes) / 1024 / float64(o.nodes)
	}
	hits, misses := float64(o.matrix.Hits()), float64(o.matrix.Misses())
	mt["topology.matrix_hit_share"] = ratio(hits, hits+misses)
	mt["topology.matrix_recomputes"] = float64(o.matrix.Recomputes())
	mt["topology.matrix_resident_mb"] = float64(o.matrix.ResidentBytes()) / 1e6

	it.Fingerprint = fmt.Sprintf("events=%d frames=%d lost=%d deliveries=%d delivered=%d payloads=%d control=%d p50=%v p95=%v last=%v",
		o.net.EventsProcessed, o.net.FramesSent, o.net.FramesLost, deliveries, delivered,
		o.cp.TotalPayloads, o.cp.ControlFrames,
		mt["delivery_p50_ms"], mt["delivery_p95_ms"], mt["last_delivery_p50_ms"])
}

// multicastFloor is the share of the correct processes a multicast must
// reach to count as a successful operation.
const multicastFloor = 0.99

// multicastReached reports whether a multicast delivered by reached of the
// correct processes succeeded. Gossip with fanout 11 promises every process
// only with high probability: a run of ~240 000 (message, node) pairs misses
// a handful by design, and which handful depends on the seed, so a single
// missing pair is not a failed operation. It stays visible, exactly, in
// delivered_share. On the 16 TCP peers the floor means all of them.
func multicastReached(reached, correct int) bool {
	return float64(reached) >= multicastFloor*float64(correct)
}

// undeliveredBound is how large a share of expected deliveries a fault-free
// run may miss before the output check fails.
const undeliveredBound = 0.0005

// lazyLedger fills the payload scheduler's counters, which both substrates
// report through the same trace events.
func lazyLedger(mt map[string]float64, c trace.Counters, msgs float64) {
	mt["lazy.eager_payloads_per_msg"] = ratio(float64(c.EagerPayloads), msgs)
	mt["lazy.lazy_payloads_per_msg"] = ratio(float64(c.LazyPayloads), msgs)
	mt["lazy.control_frames_per_msg"] = ratio(float64(c.ControlFrames), msgs)
	mt["lazy.duplicates_per_delivery"] = ratio(float64(c.Duplicates), float64(c.TotalDelivered))
	mt["lazy.request_misses"] = float64(c.RequestMisses)
	// Every delivery but the origin's own needed one payload frame.
	mt["lazy.useful_payload_share"] = ratio(float64(c.TotalDelivered)-msgs, float64(c.TotalPayloads))
}
