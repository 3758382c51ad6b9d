package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"emcast/internal/faults"
	"emcast/internal/peer"
	"emcast/internal/trace"
)

// Substrate is a deployment the Player can drive: the discrete-event
// emulator (Engine) or a fleet of real TCP peers (internal/live). It
// supplies a clock, a way to run code at an offset on it, the population
// and network actions a Spec can ask for, and cumulative counters at
// phase edges. Everything a Spec *means* — which node sends, who joins
// through whom, who dies, what the report says — is decided by the
// Player, once, for every substrate. Methods are called from the one
// goroutine that runs Play.
type Substrate interface {
	// Now reads the substrate clock (virtual time, or wall time since the
	// fleet's epoch); Scale maps a Spec duration onto it. Trace timestamps
	// are on the same clock.
	Now() time.Duration
	Scale(d time.Duration) time.Duration
	// Schedule arranges for fn to run during the next RunFor, at Spec
	// offset at from its start; functions with equal offsets run in
	// Schedule order. RunFor advances the clock by the Spec duration d.
	Schedule(at time.Duration, fn func())
	RunFor(d time.Duration)

	// LiveAll lists every participant currently up, ascending: original
	// nodes that have not failed or left plus joiners that entered.
	// Failed reports whether a node is not up (dead, or never joined).
	LiveAll() []int
	Failed(node int) bool
	Multicast(node int, payload []byte)
	// Join starts provisioned node and introduces it through contact.
	// Kill removes node: announced (leave) or silently (crash).
	Join(node, contact int)
	Kill(node int, leave bool)

	// Partition cuts the network into the listed sides (nodes listed
	// nowhere share one implicit extra side); Heal undoes it. Stall
	// freezes one node's frame processing for the Spec duration d.
	Partition(groups [][]int)
	Heal()
	Stall(node int, d time.Duration)
	// Faults is the injector the substrate's transport consults — nil
	// unless the spec schedules fault-* events (Spec.Injector). The
	// Player installs and clears link rules on it.
	Faults() *faults.Injector

	// MarkRecovery declares the clock window [from, to) one whose
	// recovery time will be measured, before its traffic is multicast.
	MarkRecovery(from, to time.Duration)
	// Boundary captures the cumulative state at a phase edge. At the
	// final edge of the run it also freezes the per-message aggregates
	// (Boundary.Msgs) the report is computed from.
	Boundary(final bool) Boundary
}

// Emulator is the part of the vocabulary only a modelled network can
// play: link-quality knobs and the global latency-oracle ranking. A
// substrate that does not implement it refuses the specs named by
// Spec.EmulatorOnly — at NewPlayer, never mid-run.
type Emulator interface {
	SetLatencyFactor(f float64)
	SetExtraLatency(d time.Duration)
	SetLoss(p float64)
	// RankedNodes lists the initial nodes best-first by the oracle metric.
	RankedNodes() []peer.ID
}

// Boundary is the cumulative state at a phase edge; per-phase interval
// counters fall out as diffs of adjacent boundaries. It holds a light
// trace.Checkpoint (counters plus link loads), never a copy of the
// delivery log — phase edges stay O(connections) at any population.
type Boundary struct {
	At         time.Duration
	CP         trace.Checkpoint
	FramesSent uint64
	FramesLost uint64
	Msgs       []trace.MsgStats // final edge only
}

// edge is a Boundary plus the overlay size the Player saw there.
type edge struct {
	Boundary
	live int
}

// Player interprets a Spec against a Substrate: it expands every phase
// into timed actions, makes every random pick from one seeded stream, and
// assembles the Report. It is the only interpreter of a Spec in the
// repository; Engine and live.Harness are adapters around it.
type Player struct {
	spec *Spec
	sub  Substrate
	emu  Emulator // nil when sub is not an emulator
	rng  *rand.Rand

	alive      func(node int) bool
	nextJoiner int   // next provisioned joiner index to hand out
	cur        int   // current phase index while playing
	skipped    []int // per-phase sends skipped because the source was dead
	joined     map[peer.ID]time.Duration
}

// NewPlayer binds a normalized spec to a substrate. It fails when the
// spec needs an Emulator and sub is not one.
func NewPlayer(spec *Spec, sub Substrate) (*Player, error) {
	emu, _ := sub.(Emulator)
	if emu == nil {
		if err := spec.EmulatorOnly(); err != nil {
			return nil, fmt.Errorf("scenario: %v", err)
		}
	}
	return &Player{
		spec:       spec,
		sub:        sub,
		emu:        emu,
		rng:        rand.New(rand.NewSource(spec.Seed ^ 0x5ce9a5105ce9a510)),
		alive:      func(node int) bool { return !sub.Failed(node) },
		nextJoiner: spec.Nodes,
		skipped:    make([]int, len(spec.Phases)),
		joined:     make(map[peer.ID]time.Duration),
	}, nil
}

// EmulatorOnly names the first thing in the spec that only an Emulator
// substrate can play — the oracle switches, link-quality events and
// kill-best churn, which ranks nodes by the topology oracle — or returns
// nil.
func (s *Spec) EmulatorOnly() error {
	if s.DistanceMetric {
		return fmt.Errorf("distance_metric selects the emulator oracle's plane distance, which real peers cannot measure")
	}
	if s.EWMAMonitor {
		return fmt.Errorf("ewma_monitor replaces the emulator's latency oracle, which real peers never had")
	}
	for i := range s.Phases {
		p := &s.Phases[i]
		for j := range p.Churn {
			if p.Churn[j].Kind == ChurnKillBest {
				return fmt.Errorf("phase %q: kill-best churn ranks nodes by the topology oracle, which only the emulator has", p.Name)
			}
		}
		for j := range p.Network {
			switch k := p.Network[j].Kind; k {
			case NetLatencyFactor, NetExtraLatency, NetLoss:
				return fmt.Errorf("phase %q: network event %q is emulator-only", p.Name, k)
			}
		}
	}
	return nil
}

// Play runs every phase back to back on an already warmed-up substrate,
// drains, and reports overall and per-phase metrics. phaseEnd, when set,
// is called after each phase's closing boundary (adapters log from it).
func (pl *Player) Play(phaseEnd func(i int, p *Phase)) *Report {
	sub, phases := pl.sub, pl.spec.Phases
	bounds := make([]edge, 0, len(phases)+1)
	bounds = append(bounds, takeEdge(sub, false))
	starts := make([]time.Duration, len(phases))
	for i := range phases {
		pl.cur = i
		p := &phases[i]
		starts[i] = sub.Now()
		if off, disrupted := disruption(p); disrupted {
			// The phase's recovery time will be queried over
			// [event, phase end): the trace must retain the completion
			// records of that window's messages before any of them is
			// multicast.
			sub.MarkRecovery(starts[i]+sub.Scale(off.D()), starts[i]+sub.Scale(p.Duration.D()))
		}
		pl.schedulePhase(p)
		sub.RunFor(p.Duration.D())
		last := i == len(phases)-1
		if last {
			// The drain belongs to the last phase's interval, so its
			// in-flight recoveries are accounted somewhere.
			sub.RunFor(pl.spec.Drain.D())
		}
		bounds = append(bounds, takeEdge(sub, last))
		if phaseEnd != nil {
			phaseEnd(i, p)
		}
	}
	return pl.report(starts, bounds)
}

func takeEdge(sub Substrate, final bool) edge {
	return edge{Boundary: sub.Boundary(final), live: len(sub.LiveAll())}
}

// schedulePhase installs every traffic arrival, churn event and network
// event of the phase on the substrate clock. All offsets are < the phase
// duration, so everything fires during this phase's RunFor.
func (pl *Player) schedulePhase(p *Phase) {
	for i := range p.Traffic {
		// Each stream draws from its own RNG, seeded by (scenario seed,
		// phase, stream), so schedules are independent and reproducible.
		st := NewStream(&p.Traffic[i], StreamSeed(pl.spec.Seed, pl.cur, i), pl.spec.Nodes)
		for _, at := range st.Arrivals(p.Duration.D()) {
			pl.sub.Schedule(at, func() { pl.fire(st) })
		}
	}
	for i := range p.Churn {
		pl.scheduleChurn(&p.Churn[i])
	}
	for i := range p.Network {
		ev := &p.Network[i]
		pl.sub.Schedule(ev.At.D(), func() { pl.applyNetEvent(ev) })
	}
}

// fire sends one message of a stream, or counts a skip when the chosen
// source is dead. The live set spans original nodes and joined joiners,
// so round-robin and uniform pickers let joiners send once they are in
// the overlay; zipf and fixed pickers address original node indices.
func (pl *Player) fire(st *Stream) {
	node, ok := st.PickSender(pl.sub.LiveAll(), pl.alive)
	if !ok {
		pl.skipped[pl.cur]++
		return
	}
	pl.sub.Multicast(node, st.Payload())
}

// scheduleChurn installs one churn event of the current phase. Waves
// spread their k sub-events evenly across the Over window (the i-th fires
// at At + Over*i/k); with Over zero the wave is instantaneous. Joiner
// indices are handed out here, in schedule order; contacts and victims
// are picked at fire time against the then-current live set, so
// overlapping waves compose naturally.
func (pl *Player) scheduleChurn(c *ChurnSpec) {
	k := pl.spec.ChurnCount(c)
	at := func(i int) time.Duration {
		if k <= 0 || c.Over <= 0 {
			return c.At.D()
		}
		return c.At.D() + c.Over.D()*time.Duration(i)/time.Duration(k)
	}
	switch c.Kind {
	case ChurnFlashCrowd:
		first := pl.takeJoiners(k)
		pl.sub.Schedule(c.At.D(), func() {
			for j := first; j < first+k; j++ {
				pl.join(j)
			}
		})
	case ChurnJoinWave:
		first := pl.takeJoiners(k)
		for i := 0; i < k; i++ {
			j := first + i
			pl.sub.Schedule(at(i), func() { pl.join(j) })
		}
	case ChurnLeaveWave, ChurnCrashWave:
		leave := c.Kind == ChurnLeaveWave
		for i := 0; i < k; i++ {
			pl.sub.Schedule(at(i), func() { pl.killRandom(leave) })
		}
	case ChurnKillBest:
		for i := 0; i < k; i++ {
			pl.sub.Schedule(at(i), pl.killBest)
		}
	}
}

// takeJoiners reserves the next k provisioned joiner indices and returns
// the first.
func (pl *Player) takeJoiners(k int) int {
	first := pl.nextJoiner
	pl.nextJoiner += k
	return first
}

// join brings a provisioned node into the overlay through a random live
// contact — an original node or an already-joined joiner. With nothing
// live to contact the join is dropped — there is no overlay left to join.
func (pl *Player) join(node int) {
	live := pl.sub.LiveAll()
	if len(live) == 0 {
		return
	}
	pl.joined[peer.ID(node)] = pl.sub.Now()
	pl.sub.Join(node, live[pl.rng.Intn(len(live))])
}

// killRandom removes one random live participant — original node or
// joined joiner — gracefully when leave is set, as a crash otherwise.
func (pl *Player) killRandom(leave bool) {
	live := pl.sub.LiveAll()
	if len(live) <= 1 {
		return // never remove the last node
	}
	// The headline metrics are scoped to original nodes, so the last
	// live original is never a victim — an overlay of only joiners
	// would report zero delivery despite disseminating fine. Joined
	// joiners stay fair game. (live is ascending: originals first.)
	originals := 0
	for originals < len(live) && live[originals] < pl.spec.Nodes {
		originals++
	}
	if originals <= 1 {
		live = live[originals:]
		if len(live) == 0 {
			return
		}
	}
	pl.sub.Kill(live[pl.rng.Intn(len(live))], leave)
}

// killBest crashes the best-ranked node still alive — the paper's §6.3
// targeted failure mode ("precisely those that are contributing more to
// the dissemination effort"), generalised to a timed schedule.
func (pl *Player) killBest() {
	best, live := -1, 0
	for _, id := range pl.emu.RankedNodes() {
		if pl.alive(int(id)) {
			if live == 0 {
				best = int(id)
			}
			live++
		}
	}
	if live > 1 {
		pl.sub.Kill(best, false)
	}
}

// applyNetEvent applies one network-dynamics event.
func (pl *Player) applyNetEvent(ev *NetEvent) {
	sub, inj := pl.sub, pl.sub.Faults()
	switch ev.Kind {
	case NetLatencyFactor:
		pl.emu.SetLatencyFactor(ev.Factor)
	case NetExtraLatency:
		pl.emu.SetExtraLatency(ev.Extra.D())
	case NetLoss:
		pl.emu.SetLoss(ev.Loss)
	case NetPartition:
		groups := ev.Groups
		if len(groups) == 0 {
			// Split shorthand: the first Split fraction of the initial
			// nodes against everyone else (joiners included).
			side := make([]int, int(ev.Split*float64(pl.spec.Nodes)+0.5))
			for i := range side {
				side[i] = i
			}
			groups = [][]int{side}
		}
		sub.Partition(groups)
	case NetHeal:
		sub.Heal()
	case NetFaultLink:
		// Validated at spec load; Install re-checks and cannot fail here.
		_ = inj.Install(ev.FaultRule())
	case NetFaultClear:
		inj.Clear()
	case NetFaultSlow:
		for _, r := range ev.SlowRules() {
			_ = inj.Install(r)
		}
	case NetFaultStall:
		for _, node := range ev.Nodes {
			sub.Stall(node, ev.For.D())
		}
	case NetFaultCrash:
		for _, node := range ev.Nodes {
			sub.Kill(node, false)
		}
	}
}

// report assembles the final Report from the phase starts and edges.
// Message-scoped figures come from windowMetrics over the frozen
// per-message aggregates, judged against the original nodes still up at
// the end of the run; interval-scoped counters are edge diffs.
func (pl *Player) report(starts []time.Duration, bounds []edge) *Report {
	spec, sub := pl.spec, pl.sub
	last := bounds[len(bounds)-1]
	msgs, liveSet := last.Msgs, liveOriginals(sub.LiveAll(), spec.Nodes)
	rep := &Report{
		Scenario: spec.Name,
		Seed:     spec.Seed,
		Strategy: spec.Strategy,
		Nodes:    spec.Nodes,
		Joiners:  spec.Joiners(),
		Elapsed:  Duration(last.At),
	}

	rep.Overall = overall(sub, liveSet, pl.joined, bounds[0], last)
	for _, k := range pl.skipped {
		rep.Overall.SkippedSends += k
	}

	for i := range spec.Phases {
		p := &spec.Phases[i]
		prev, cur := bounds[i], bounds[i+1]
		end := starts[i] + sub.Scale(p.Duration.D())
		m := windowMetrics(msgs, liveSet, starts[i], end)
		m.SkippedSends, m.LiveNodes = pl.skipped[i], cur.live
		if off, disrupted := disruption(p); disrupted {
			event := starts[i] + sub.Scale(off.D())
			switch rec, recovered, measured := messageRecovery(msgs, liveSet, event, end); {
			case !measured:
				// No traffic after the event: nothing to judge recovery
				// by, so stay at 0 rather than claiming a failure.
			case recovered:
				m.RecoveryMS = ms(rec)
			default:
				m.RecoveryMS = -1
			}
		}
		switch {
		case m.RecoveryMS < 0:
			rep.Overall.RecoveryMS = -1
		case rep.Overall.RecoveryMS >= 0 && m.RecoveryMS > rep.Overall.RecoveryMS:
			rep.Overall.RecoveryMS = m.RecoveryMS
		}
		m.addCounters(prev, cur)
		rep.Phases = append(rep.Phases, PhaseReport{
			Name:    p.Name,
			StartMS: ms(starts[i]),
			EndMS:   ms(cur.At),
			Metrics: m,
		})
	}
	return rep
}
