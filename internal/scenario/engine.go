package scenario

import (
	"fmt"
	"time"

	"emcast/internal/disstrace"
	"emcast/internal/emunet"
	"emcast/internal/faults"
	"emcast/internal/obs"
	"emcast/internal/sim"
	"emcast/internal/topology"
)

// Engine plays a Spec against a simulated deployment: it is the Player's
// emulator adapter over sim.Runner. Build one with New, run it once with
// Run.
type Engine struct {
	spec   Spec
	runner *sim.Runner
	player *Player
	ran    bool
}

// New validates the spec (after applying defaults) and assembles the
// simulation behind it.
func New(spec Spec) (*Engine, error) {
	spec.fill()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg := simConfig(&spec)
	cfg.Faults = spec.Injector()
	e := &Engine{spec: spec, runner: sim.New(cfg)}
	var err error
	e.player, err = NewPlayer(&e.spec, emulator{e.runner, e.runner.Network()})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Faults exposes the engine's fault injector (nil when the spec has no
// fault events) for diagnostics and tests.
func (e *Engine) Faults() *faults.Injector { return e.runner.Network().Faults() }

// emulator is the discrete-event Substrate. The runner and its network
// already speak most of the interface — clock, live set, join, partition,
// the link knobs, the oracle ranking, the fault injector — so those are
// promoted; only what needs translating is written out.
type emulator struct {
	*sim.Runner
	*emunet.Network
}

// Scale is the identity: Spec time is virtual time.
func (m emulator) Scale(d time.Duration) time.Duration { return d }

func (m emulator) Schedule(at time.Duration, fn func()) { m.AfterFunc(at, fn) }

func (m emulator) Multicast(node int, payload []byte) { m.MulticastFrom(node, payload) }

// Kill: under the paper's unreliable transport a leave and a crash look
// identical on the wire; Leave additionally stops the node's own tasks.
func (m emulator) Kill(node int, leave bool) {
	if leave {
		m.Leave(node)
	} else {
		m.Fail(node)
	}
}

// Stall freezes the node in the fault plane until now+d.
func (m emulator) Stall(node int, d time.Duration) { m.Faults().Stall(node, m.Now()+d) }

func (m emulator) Boundary(final bool) Boundary {
	b := Boundary{
		At:         m.Now(),
		CP:         m.Checkpoint(),
		FramesSent: m.FramesSent,
		FramesLost: m.FramesLost,
	}
	if final {
		b.Msgs = m.MessageStats()
	}
	return b
}

// simConfig maps a validated spec onto a simulation configuration.
func simConfig(spec *Spec) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Nodes = spec.Nodes
	cfg.Seed = spec.Seed
	cfg.TTLRounds = spec.TTLRounds
	cfg.RadiusQuantile = spec.RadiusQuantile
	cfg.BestFraction = spec.BestFraction
	cfg.Noise = spec.Noise
	cfg.Loss = spec.Loss
	cfg.UseGossipRanking = spec.GossipRanking
	cfg.UseEWMAMonitor = spec.EWMAMonitor
	cfg.DistanceMetric = spec.DistanceMetric
	cfg.LateJoiners = spec.Joiners()
	cfg.TraceSample = spec.TraceSample
	cfg.Obs = spec.Obs
	cfg.Strategy, cfg.FlatP, _ = sim.ParseStrategy(spec.Strategy, spec.FlatP) // name vetted by Validate
	if spec.TopologyScale > 1 {
		tp := topology.DefaultParams().Scaled(spec.TopologyScale)
		cfg.Topology = &tp
	}
	return cfg
}

// Runner exposes the simulation under the engine (tests and tooling).
func (e *Engine) Runner() *sim.Runner { return e.runner }

// DissTracer exposes the sampling dissemination tracer (timeline and DOT
// exports), or nil when the spec's trace_sample was zero.
func (e *Engine) DissTracer() *disstrace.Tracer { return e.runner.DissTracer() }

// TreeReport returns the sampled dissemination-tree report after Run, or
// nil when the spec's trace_sample was zero. It is never embedded in the
// Report the engine returns — callers opt in (Report.Trees), keeping the
// default report bytes identical with sampling on or off.
func (e *Engine) TreeReport() *disstrace.TreeReport { return e.runner.TreeReport() }

// Run warms the overlay up, plays every phase back to back, drains, and
// reports overall and per-phase metrics. It can only be called once.
func (e *Engine) Run() (*Report, error) {
	if e.ran {
		return nil, fmt.Errorf("scenario: engine already ran")
	}
	e.ran = true
	e.spec.EventLog.Event("run_start", map[string]interface{}{
		"scenario": e.spec.Name,
		"nodes":    e.spec.Nodes,
		"strategy": e.spec.Strategy,
		"seed":     e.spec.Seed,
		"phases":   len(e.spec.Phases),
	})
	e.runner.Warmup()
	rep := e.player.Play(func(i int, p *Phase) {
		e.logEnd("phase_end", map[string]interface{}{
			"phase": p.Name,
			"index": i,
			"live":  len(e.runner.LiveAll()),
		})
	})
	if d := e.runner.DissTracer(); d != nil {
		// Compute the tree report while the obs registry is still
		// attached, so the disstrace histograms populate even when the
		// caller never asks for the trees.
		d.Report()
	}
	e.logEnd("run_end", map[string]interface{}{})
	return rep, nil
}

// logEnd emits a phase_end / run_end record with the clock, the event
// count and — when the obs plane is attached — the footprint walk.
func (e *Engine) logEnd(kind string, rec map[string]interface{}) {
	rec["scenario"] = e.spec.Name
	rec["virtual_ms"] = ms(e.runner.Network().Now())
	rec["sim_events"] = e.runner.Events()
	if fps := e.walkFootprints(); fps != nil {
		rec["footprint_bytes"] = obs.FootprintBytesMap(fps)
	}
	e.spec.EventLog.Event(kind, rec)
}

// walkFootprints runs the per-subsystem accounting walk when the obs
// plane is attached (registry or event log), publishing the gauges and
// returning the merged footprints; with neither attached it returns nil
// without touching the runner, so unobserved runs pay nothing. The walk
// only reads simulation state — reports stay byte-identical either way.
func (e *Engine) walkFootprints() []obs.Footprint {
	if e.spec.Obs == nil && e.spec.EventLog == nil {
		return nil
	}
	fps := e.runner.Footprints()
	obs.PublishFootprints(e.spec.Obs, "sim", fps)
	return fps
}
