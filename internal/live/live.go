// Package live replays scenario Specs on real TCP peers: the same
// declarative workloads the virtual-time simulator plays (traffic
// generators, churn schedules, partitions) are executed against a fleet
// of in-process emcast.Peer nodes on loopback sockets, with virtual phase
// times mapped to wall-clock pacing.
//
// The package interprets nothing. scenario.Player decides what a Spec
// means — arrivals, sender/contact/victim picks, churn expansion, the
// Report — and drives a scenario.Substrate; Harness supplies the TCP one
// (tcp: wall clock, paced timeline, the shared streaming trace), built on
// fleet, the peer bookkeeping. Deliveries flow through the same
// trace.Streaming pipeline the simulator uses (one collector shared by
// the whole fleet behind trace.Locked, folded as transport goroutines
// deliver), so the report has the simulator's exact schema — and Compare
// diffs a live report against a simulator prediction metric by metric,
// the step that validates the model against real sockets. A fault soak
// is a Spec with fault-* events played the same way; `emucast chaos`
// judges its Report.
//
// What has a real-network meaning plays: every traffic generator and
// sender picker, join/flash-crowd/leave/crash churn (joiners start on
// ephemeral ports and enter through the Join protocol; victims are closed
// or hard-killed), partition/heal via the PeerConfig.LinkFilter hook, and
// the fault-* vocabulary (link rules through a fleet-shared
// faults.Injector, stalls through transport freezes, targeted crashes).
// Emulator-only dynamics — latency scaling, loss and noise injection,
// oracle-ranked kill-best churn — are rejected by Supported.
package live

import (
	"fmt"
	"sort"
	"time"

	"emcast"
	"emcast/internal/disstrace"
	"emcast/internal/faults"
	"emcast/internal/obs"
	"emcast/internal/scenario"
	"emcast/internal/trace"
)

// Options tunes the harness.
type Options struct {
	// TimeScale compresses the virtual timeline: a phase of virtual
	// duration d paces over d/TimeScale of wall clock (default 1 — real
	// time). Protocol timers (retransmission period, shuffles) stay at
	// their wall-clock values, so aggressive compression distorts the
	// pacing/protocol ratio; latency measurements are always real.
	TimeScale float64
	// Warmup is the wall-clock settling time before the first phase
	// (connections establish, views randomise; gossip-ranked runs also
	// need ping and score samples). Default 500 ms, 3 s for ranked.
	Warmup time.Duration
	// Drain keeps the fleet running after the last phase so in-flight
	// lazy recoveries settle. Default: the spec's drain mapped through
	// TimeScale, at least 1 s.
	Drain time.Duration
	// Logf, when set, receives progress lines (phase starts, churn).
	Logf func(format string, args ...interface{})
	// Obs, when set, receives fleet transport instruments (frames, wire
	// bytes, send-queue depth, live peer count); EventLog, when set, gets
	// run_start / phase_end / run_end records. Observability only — the
	// played schedule is identical with or without them.
	Obs      *obs.Registry
	EventLog *obs.EventLog
}

func (o *Options) fill(spec *scenario.Spec) {
	if o.TimeScale <= 0 {
		o.TimeScale = 1
	}
	if o.Warmup <= 0 {
		o.Warmup = 500 * time.Millisecond
		if spec.Strategy == "ranked" {
			o.Warmup = 3 * time.Second
		}
	}
	if o.Drain <= 0 {
		o.Drain = time.Duration(float64(spec.Drain.D()) / o.TimeScale)
		if o.Drain < time.Second {
			o.Drain = time.Second
		}
	}
}

// supported reports whether the spec can be played on real TCP peers,
// with a descriptive error naming the first unsupported feature: a
// strategy or knob that exists only in the simulator's model (radius and
// hybrid's radius, which a Spec places on a quantile of the latency
// oracle; loss and noise injection), or an event only an emulator
// substrate can play (scenario.Spec.EmulatorOnly).
func supported(spec *scenario.Spec) error {
	if spec.Strategy == "radius" || spec.Strategy == "hybrid" {
		return fmt.Errorf("live: strategy %q needs a radius in milliseconds, and a Spec gives radius_quantile, a quantile of the emulator's latency oracle", spec.Strategy)
	}
	if spec.Loss > 0 {
		return fmt.Errorf("live: loss injection is emulator-only (TCP does not lose frames on demand)")
	}
	if spec.Noise > 0 {
		return fmt.Errorf("live: strategy noise is emulator-only (emcast.Peer has no §4.3 noise knob, so the fleet would run undegraded)")
	}
	if err := spec.EmulatorOnly(); err != nil {
		return fmt.Errorf("live: %v", err)
	}
	return nil
}

// Harness replays one Spec on a fleet of real TCP peers. Build with New,
// run once with Run.
type Harness struct {
	spec   scenario.Spec
	opts   Options
	tcp    *tcp
	player *scenario.Player
	// diss is the optional sampling dissemination tracer, teed behind the
	// streaming collector when spec.TraceSample > 0. The metric pipeline
	// reads the collector only.
	diss *disstrace.Tracer
	ran  bool
}

// New validates the spec (defaults applied) for live playback and
// assembles a harness.
func New(spec scenario.Spec, opts Options) (*Harness, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	if err := supported(&spec); err != nil {
		return nil, err
	}
	opts.fill(&spec)
	// Options.Drain is a wall-clock override; the player drains for the
	// spec's drain mapped through TimeScale, so express it in spec time.
	spec.Drain = scenario.Duration(float64(opts.Drain) * opts.TimeScale)

	h := &Harness{spec: spec, opts: opts}
	tracer := trace.NewLocked(trace.NewStreaming())
	base := emcast.PeerConfig{
		Tracer:       tracer,
		Faults:       spec.Injector(),
		Strategy:     emcast.Strategy(spec.Strategy),
		FlatP:        spec.FlatP,
		TTLRounds:    spec.TTLRounds,
		BestFraction: spec.BestFraction,
	}
	if spec.TraceSample > 0 {
		// Same seed and hash as the simulator: the sampled id *rate* is
		// deterministic, and a sim run of the same spec samples the same
		// fraction, making tree shapes diffable across the two planes.
		h.diss = disstrace.New(disstrace.Config{
			Rate: spec.TraceSample,
			Seed: spec.Seed,
			Obs:  opts.Obs,
		})
		base.Tracer = trace.Tee(tracer, h.diss)
	}
	h.tcp = &tcp{
		fleet:     newFleet(base, spec.Seed, opts.Logf),
		timeScale: opts.TimeScale,
		tracer:    tracer,
	}
	var err error
	if h.player, err = scenario.NewPlayer(&h.spec, h.tcp); err != nil {
		return nil, err
	}
	return h, nil
}

// Faults exposes the fleet-shared fault injector, or nil when the spec
// schedules no fault-* events.
func (h *Harness) Faults() *faults.Injector { return h.tcp.Faults() }

// DissTracer exposes the sampling dissemination tracer (timeline and DOT
// exports), or nil when the spec's trace_sample was zero.
func (h *Harness) DissTracer() *disstrace.Tracer { return h.diss }

// TreeReport returns the sampled dissemination-tree report after Run, or
// nil when the spec's trace_sample was zero. Sampling uses the same
// (seed, id)-hash as the simulator, so a sim run of the same spec yields
// directly comparable tree shapes.
func (h *Harness) TreeReport() *disstrace.TreeReport {
	if h.diss == nil {
		return nil
	}
	return h.diss.Report()
}

// Run starts the fleet, plays every phase back to back with wall-clock
// pacing, drains, closes every peer, and reports the same overall and
// per-phase metrics the simulator reports. It can only be called once.
func (h *Harness) Run() (*scenario.Report, error) {
	if h.ran {
		return nil, fmt.Errorf("live: harness already ran")
	}
	h.ran = true
	f := h.tcp.fleet
	if err := f.start(h.spec.Nodes); err != nil {
		return nil, fmt.Errorf("live: %v", err)
	}
	f.attachObs(h.opts.Obs)
	defer f.releaseObs()
	h.opts.EventLog.Event("run_start", map[string]interface{}{
		"scenario": h.spec.Name,
		"nodes":    h.spec.Nodes,
		"strategy": h.spec.Strategy,
		"seed":     h.spec.Seed,
		"phases":   len(h.spec.Phases),
		"harness":  "live",
	})

	f.logf("live: %d peers up, warming %v", h.spec.Nodes, h.opts.Warmup)
	time.Sleep(h.opts.Warmup)
	rep := h.player.Play(func(i int, p *scenario.Phase) {
		f.logf("live: phase %q done", p.Name)
		h.opts.EventLog.Event("phase_end", map[string]interface{}{
			"scenario": h.spec.Name,
			"phase":    p.Name,
			"index":    i,
			"wall_s":   h.tcp.Now().Seconds(),
			"harness":  "live",
		})
	})
	if h.diss != nil {
		// Compute the tree report while the obs registry is attached so
		// the disstrace histograms populate (releaseObs runs deferred).
		h.diss.Report()
	}
	// Close before run_end, so its metrics snapshot counts the graceful
	// departures and the frames the closing drain lost.
	f.closeAll()
	h.opts.EventLog.Event("run_end", map[string]interface{}{
		"scenario": h.spec.Name,
		"wall_s":   h.tcp.Now().Seconds(),
		"harness":  "live",
	})
	return rep, nil
}

// tcp is the real-socket scenario.Substrate: the fleet supplies the
// population and network actions (promoted), tcp adds the wall clock, the
// paced timeline and the trace the report is computed from.
type tcp struct {
	*fleet
	timeScale float64
	tracer    *trace.Locked
	events    []event // scheduled for the next RunFor
}

// event is one scheduled action on the wall-clock timeline.
type event struct {
	at time.Duration // spec offset from the start of the next RunFor
	fn func()
}

// Now is wall time since the fleet's epoch — the clock every peer stamps
// trace events with.
func (s *tcp) Now() time.Duration { return time.Since(s.epoch) }

// Scale maps a spec duration to its wall-clock pacing. Protocol timers
// stay at their wall-clock values (see Options.TimeScale).
func (s *tcp) Scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) / s.timeScale)
}

func (s *tcp) Schedule(at time.Duration, fn func()) {
	s.events = append(s.events, event{at: at, fn: fn})
}

// RunFor plays the scheduled events with wall-clock pacing, then sleeps
// out the rest of d.
func (s *tcp) RunFor(d time.Duration) {
	s.logf("live: %v of spec time over %v wall, %d events", d, s.Scale(d), len(s.events))
	// Stable sort: same-instant events run in Schedule order.
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].at < s.events[j].at })
	start := time.Now()
	for _, ev := range s.events {
		sleepUntil(start.Add(s.Scale(ev.at)))
		ev.fn()
	}
	s.events = s.events[:0]
	sleepUntil(start.Add(s.Scale(d)))
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func (s *tcp) Multicast(node int, payload []byte) {
	if p := s.peer(node); p != nil {
		p.Multicast(payload)
	}
}

// Stall freezes the victim's transport loops for the wall mapping of d,
// so remote senders feel real TCP backpressure while the process stays
// up.
func (s *tcp) Stall(node int, d time.Duration) {
	if p := s.peer(node); p != nil {
		s.logf("live: fault-stall node %d for %v wall", node, s.Scale(d))
		p.Stall(s.Scale(d))
	}
}

// Faults: link rules apply receive-side in the transports, best-effort
// by design.
func (s *tcp) Faults() *faults.Injector { return s.base.Faults }

func (s *tcp) MarkRecovery(from, to time.Duration) { s.tracer.RetainCompletions(from, to) }

func (s *tcp) Boundary(final bool) scenario.Boundary {
	b := scenario.Boundary{At: s.Now()}
	if final {
		// Freeze the message aggregates together with the counters, so
		// stragglers delivered while the report is assembled cannot skew
		// one but not the other.
		b.CP, b.Msgs = s.tracer.CheckpointAndMessages()
	} else {
		b.CP = s.tracer.Checkpoint()
	}
	st := s.stats()
	b.FramesSent, b.FramesLost = st.FramesSent, st.FramesLost
	return b
}
