// Package scenario is a declarative experiment engine over the simulated
// deployment: a Spec — loadable from JSON — composes pluggable traffic
// generators (constant-rate, Poisson, bursty on/off, hotspot/zipf senders,
// mixed multi-stream loads, large-payload streams), timed churn schedules
// (join waves, flash crowds, graceful leaves, crash waves, targeted kills
// of the best-ranked nodes generalising the paper's §6.3) and network
// dynamics (latency inflation/shifts, loss spikes, partition/heal), and
// the Engine plays it phase by phase against internal/sim, emitting
// overall and per-phase metrics. Every run is deterministic: all
// randomness derives from the Spec seed, so a scenario file reproduces
// bit-for-bit.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"emcast/internal/faults"
	"emcast/internal/msg"
	"emcast/internal/obs"
	"emcast/internal/sim"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("500ms", "1m30s"); plain JSON numbers are read as seconds.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v interface{}
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch v := v.(type) {
	case string:
		parsed, err := time.ParseDuration(v)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %v", v, err)
		}
		*d = Duration(parsed)
	case float64:
		*d = Duration(v * float64(time.Second))
	default:
		return fmt.Errorf("scenario: duration must be a string or number, got %T", v)
	}
	return nil
}

// D returns the native duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// Spec is the declarative description of one scenario.
type Spec struct {
	// Name labels the scenario in reports.
	Name string `json:"name"`
	// Seed drives all randomness (topology, emulator, protocol, traffic,
	// churn). Two runs of the same spec produce identical reports.
	Seed int64 `json:"seed"`
	// Nodes is the initial overlay size (default 100). Nodes provisioned
	// by join churn come on top of this.
	Nodes int `json:"nodes"`

	// Strategy selects the transmission strategy: eager, lazy, flat,
	// ttl, radius, ranked or hybrid (default eager).
	Strategy string `json:"strategy"`
	// FlatP is flat's eager probability (default 0.5).
	FlatP float64 `json:"flat_p,omitempty"`
	// TTLRounds is ttl's and hybrid's round threshold (default 2).
	TTLRounds int `json:"ttl_rounds,omitempty"`
	// RadiusQuantile positions radius/hybrid's ρ (default 0.10).
	RadiusQuantile float64 `json:"radius_quantile,omitempty"`
	// BestFraction sizes the ranked/hybrid best set (default 0.20).
	BestFraction float64 `json:"best_fraction,omitempty"`
	// Noise is the §4.3 strategy noise ratio in [0, 1].
	Noise float64 `json:"noise,omitempty"`
	// GossipRanking switches ranked/hybrid hub selection to the fully
	// decentralized gossip-based ranking pipeline.
	GossipRanking bool `json:"gossip_ranking,omitempty"`
	// DistanceMetric has the radius/ranked/hybrid oracle measure plane
	// distance instead of latency (§6.1's pseudo-geographic oracle), and
	// EWMAMonitor takes the Eager? metric from the run-time ping monitor
	// instead of the oracle. Both choose between models only the emulator
	// holds (Spec.EmulatorOnly).
	DistanceMetric bool `json:"distance_metric,omitempty"`
	EWMAMonitor    bool `json:"ewma_monitor,omitempty"`

	// Loss is the baseline frame loss probability (loss events override
	// it mid-run).
	Loss float64 `json:"loss,omitempty"`
	// TopologyScale divides the simulated router population (1 =
	// paper-size ~3000 routers; tests and examples use 8 for speed).
	TopologyScale int `json:"topology_scale,omitempty"`
	// Drain keeps the simulation running after the last phase so
	// in-flight lazy recoveries settle (default 10s).
	Drain Duration `json:"drain,omitempty"`
	// TraceSample, when positive, samples this fraction of message ids
	// with the dissemination tracer (internal/disstrace), which
	// reconstructs their full hop graphs. Strictly observational: the
	// report is byte-identical with sampling on or off, and the sampled
	// set is a deterministic function of (seed, id). The tree report is
	// exposed via Engine.TreeReport, never embedded by default.
	TraceSample float64 `json:"trace_sample,omitempty"`

	// Phases run back to back; each contributes a PhaseReport.
	Phases []Phase `json:"phases"`

	// Obs, when set, receives the run's counters (see internal/obs);
	// EventLog, when set, gets run_start / phase_end / run_end records.
	// Runtime wiring only — never serialized, and per the obs determinism
	// rule the report is byte-identical with or without them.
	Obs      *obs.Registry `json:"-"`
	EventLog *obs.EventLog `json:"-"`
}

// Phase is one timed segment of a scenario.
type Phase struct {
	// Name labels the phase in reports.
	Name string `json:"name"`
	// Duration is the phase length in virtual time.
	Duration Duration `json:"duration"`
	// Traffic streams run concurrently through the phase; an empty list
	// is a silent phase (useful to observe recovery).
	Traffic []TrafficSpec `json:"traffic,omitempty"`
	// Churn events fire within the phase.
	Churn []ChurnSpec `json:"churn,omitempty"`
	// Network events fire within the phase.
	Network []NetEvent `json:"network,omitempty"`
}

// Traffic generator kinds.
const (
	// TrafficConstant spaces messages exactly 1/rate apart.
	TrafficConstant = "constant"
	// TrafficPoisson draws exponential inter-arrival gaps with mean
	// 1/rate.
	TrafficPoisson = "poisson"
	// TrafficBurst alternates on-periods of Poisson arrivals at rate
	// with silent off-periods.
	TrafficBurst = "burst"
)

// Sender picker kinds.
const (
	// SendersRoundRobin rotates through the live participants — original
	// nodes and joined joiners alike (default; the paper's §5.3
	// workload).
	SendersRoundRobin = "roundrobin"
	// SendersUniform picks a live participant (original or joined
	// joiner) uniformly at random per message.
	SendersUniform = "uniform"
	// SendersZipf picks senders by a zipf law over the initial node
	// indices — a hotspot workload. Messages drawn for a dead hotspot
	// are skipped (the source died), not remapped.
	SendersZipf = "zipf"
	// SendersFixed rotates through an explicit sender list.
	SendersFixed = "fixed"
)

// TrafficSpec describes one message stream: an arrival process, a sender
// picker and a payload sizer. Multiple streams in one phase model mixed
// workloads (e.g. frequent small messages plus a rare large-payload
// stream).
type TrafficSpec struct {
	// Kind is the arrival process: constant, poisson or burst.
	Kind string `json:"kind"`
	// Rate is the arrival rate in messages/second (for burst: the rate
	// during on-periods).
	Rate float64 `json:"rate"`
	// OnPeriod / OffPeriod shape burst traffic (defaults 2s on, 8s off).
	OnPeriod  Duration `json:"on_period,omitempty"`
	OffPeriod Duration `json:"off_period,omitempty"`

	// Senders picks the origin per message: roundrobin (default),
	// uniform, zipf or fixed.
	Senders string `json:"senders,omitempty"`
	// ZipfS is the zipf exponent (> 1, default 1.5).
	ZipfS float64 `json:"zipf_s,omitempty"`
	// FixedSenders lists the origins for the fixed picker.
	FixedSenders []int `json:"fixed_senders,omitempty"`

	// PayloadSize is the payload in bytes (default 256). When
	// PayloadMax > PayloadSize, sizes are drawn uniformly from
	// [PayloadSize, PayloadMax] — a large-payload stream.
	PayloadSize int `json:"payload_size,omitempty"`
	PayloadMax  int `json:"payload_max,omitempty"`
}

// Churn kinds.
const (
	// ChurnJoinWave starts provisioned fresh nodes joining through
	// random live contacts, staggered uniformly over the Over window.
	ChurnJoinWave = "join-wave"
	// ChurnFlashCrowd joins all fresh nodes at once at offset At.
	ChurnFlashCrowd = "flash-crowd"
	// ChurnLeaveWave removes random live participants gracefully —
	// joined joiners are fair game, not only the initial population.
	ChurnLeaveWave = "leave-wave"
	// ChurnCrashWave silences random live participants, joined joiners
	// included (the paper's §6.3 random failure mode, as a timed wave).
	ChurnCrashWave = "crash-wave"
	// ChurnKillBest silences the best-ranked live nodes first (the
	// paper's §6.3 targeted failure mode, generalised to a schedule).
	ChurnKillBest = "kill-best"
)

// ChurnSpec describes one timed churn event.
type ChurnSpec struct {
	// Kind is one of the Churn* kinds.
	Kind string `json:"kind"`
	// Count is the number of nodes affected; Fraction (of Spec.Nodes) is
	// the alternative way to size the event. Exactly one must be set.
	Count    int     `json:"count,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
	// At is the offset from the phase start (default 0).
	At Duration `json:"at,omitempty"`
	// Over staggers the event uniformly over this window starting at At
	// (0 = all at once). Flash crowds ignore Over.
	Over Duration `json:"over,omitempty"`
}

// Network event kinds.
const (
	// NetLatencyFactor scales all propagation delays by Factor.
	NetLatencyFactor = "latency-factor"
	// NetExtraLatency adds the constant Extra to all delays.
	NetExtraLatency = "extra-latency"
	// NetLoss sets the frame loss probability to Loss.
	NetLoss = "loss"
	// NetPartition splits the network into Groups (or a Split fraction
	// of the initial nodes vs everyone else).
	NetPartition = "partition"
	// NetHeal removes the partition.
	NetHeal = "heal"

	// NetFaultLink installs a fault-injection rule (internal/faults) on
	// the directed links scoped by From/To (empty = all): Drop, Delay +
	// DelayJitter, Duplicate and Reorder/ReorderBy compose per frame.
	// Rules accumulate until fault-clear.
	NetFaultLink = "fault-link"
	// NetFaultClear removes every installed fault rule (stalls already
	// scheduled keep their deadlines).
	NetFaultClear = "fault-clear"
	// NetFaultStall freezes the listed Nodes for For: in the simulator
	// their frames (both directions) are deferred past the deadline; the
	// live harness freezes the victims' transport loops so senders feel
	// real TCP backpressure.
	NetFaultStall = "fault-stall"
	// NetFaultCrash hard-fails the listed Nodes — the targeted sibling of
	// the crash-wave churn kind (which picks victims randomly).
	NetFaultCrash = "fault-crash"
	// NetFaultSlow makes the listed Nodes slow peers: every link into or
	// out of them gains Delay (+DelayJitter). Traffic between two slow
	// nodes pays the penalty twice — both endpoints are slow.
	NetFaultSlow = "fault-slow"
)

// NetEvent describes one timed network-dynamics event.
type NetEvent struct {
	// At is the offset from the phase start (default 0).
	At Duration `json:"at,omitempty"`
	// Kind is one of the Net* kinds.
	Kind string `json:"kind"`
	// Factor is the latency-factor multiplier (1 restores the base).
	Factor float64 `json:"factor,omitempty"`
	// Extra is the extra-latency shift (0 restores the base).
	Extra Duration `json:"extra,omitempty"`
	// Loss is the new loss probability for the loss kind.
	Loss float64 `json:"loss,omitempty"`
	// Groups are explicit partition sides; nodes listed nowhere form one
	// implicit extra side together.
	Groups [][]int `json:"groups,omitempty"`
	// Split, in (0, 1), partitions the first Split fraction of the
	// initial nodes from everyone else — shorthand for Groups.
	Split float64 `json:"split,omitempty"`

	// Fault-injection fields (the fault-* kinds; see internal/faults).
	// From/To scope a fault-link rule to directed links (empty = all
	// nodes); Drop/Duplicate/Reorder are per-frame probabilities; Delay,
	// DelayJitter and ReorderBy shape injected latency.
	From        []int    `json:"from,omitempty"`
	To          []int    `json:"to,omitempty"`
	Drop        float64  `json:"drop,omitempty"`
	Delay       Duration `json:"delay,omitempty"`
	DelayJitter Duration `json:"delay_jitter,omitempty"`
	Duplicate   float64  `json:"duplicate,omitempty"`
	Reorder     float64  `json:"reorder,omitempty"`
	ReorderBy   Duration `json:"reorder_by,omitempty"`
	// Nodes are the victims of fault-stall / fault-crash / fault-slow.
	Nodes []int `json:"nodes,omitempty"`
	// For is the fault-stall freeze duration.
	For Duration `json:"for,omitempty"`
}

// FaultRule maps a fault-link event's fields onto an injector rule. Both
// engines (sim and live) build rules through this one translation so the
// vocabulary cannot drift between planes.
func (e *NetEvent) FaultRule() faults.LinkRule {
	return faults.LinkRule{
		From:        e.From,
		To:          e.To,
		Drop:        e.Drop,
		Delay:       e.Delay.D(),
		DelayJitter: e.DelayJitter.D(),
		Duplicate:   e.Duplicate,
		Reorder:     e.Reorder,
		ReorderBy:   e.ReorderBy.D(),
	}
}

// SlowRules maps a fault-slow event onto its two injector rules: one for
// frames leaving the slow nodes, one for frames entering them.
func (e *NetEvent) SlowRules() [2]faults.LinkRule {
	base := faults.LinkRule{Delay: e.Delay.D(), DelayJitter: e.DelayJitter.D()}
	out, in := base, base
	out.From = e.Nodes
	in.To = e.Nodes
	return [2]faults.LinkRule{out, in}
}

// Injector provisions the fault plane for one run of the spec: a fresh
// injector seeded from the spec, or nil when no phase schedules fault-*
// events — fault-free specs run with a nil injector, so the transports'
// hot path stays one nil-check and the byte-identity story holds
// trivially. Every substrate seeds it the same way, so sim and live draw
// matching rule streams.
func (s *Spec) Injector() *faults.Injector {
	if !s.HasFaults() {
		return nil
	}
	return faults.New(s.Seed ^ 0x0fa17a11)
}

// HasFaults reports whether any phase schedules fault-* events.
func (s *Spec) HasFaults() bool {
	for i := range s.Phases {
		for j := range s.Phases[i].Network {
			switch s.Phases[i].Network[j].Kind {
			case NetFaultLink, NetFaultClear, NetFaultStall, NetFaultCrash, NetFaultSlow:
				return true
			}
		}
	}
	return false
}

// Parse reads and validates a JSON scenario spec. Unknown fields are
// rejected, so typos fail loudly instead of silently running a different
// scenario.
func Parse(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("scenario: %v", err)
	}
	spec.fill()
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// ParseString parses a JSON scenario spec from a string.
func ParseString(s string) (Spec, error) {
	return Parse(strings.NewReader(s))
}

// Normalize applies defaults in place and validates the result — what
// Parse does after decoding. Programmatic spec producers (the sweep
// engine, tests) call it so hand-built specs go through the same
// pipeline as file-loaded ones. It is idempotent and, once applied,
// later applications never write, so a normalized spec may be shared
// read-only across concurrent engine runs.
func (s *Spec) Normalize() error {
	s.fill()
	return s.Validate()
}

// fill applies defaults in place.
func (s *Spec) fill() {
	if s.Nodes <= 0 {
		s.Nodes = 100
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Strategy == "" {
		s.Strategy = "eager"
	}
	if s.TTLRounds <= 0 {
		s.TTLRounds = 2
	}
	if s.RadiusQuantile <= 0 {
		s.RadiusQuantile = 0.10
	}
	if s.BestFraction <= 0 {
		s.BestFraction = 0.20
	}
	if s.Drain <= 0 {
		s.Drain = Duration(10 * time.Second)
	}
	for i := range s.Phases {
		p := &s.Phases[i]
		if p.Name == "" {
			p.Name = fmt.Sprintf("phase-%d", i+1)
		}
		for j := range p.Traffic {
			t := &p.Traffic[j]
			if t.Senders == "" {
				t.Senders = SendersRoundRobin
			}
			if t.ZipfS <= 1 {
				t.ZipfS = 1.5
			}
			if t.PayloadSize <= 0 {
				t.PayloadSize = 256
			}
			if t.Kind == TrafficBurst {
				if t.OnPeriod <= 0 {
					t.OnPeriod = Duration(2 * time.Second)
				}
				if t.OffPeriod <= 0 {
					t.OffPeriod = Duration(8 * time.Second)
				}
			}
		}
	}
}

// Validate checks the spec for contradictions. fill must run first (Parse
// and the engine do).
func (s *Spec) Validate() error {
	if _, _, err := sim.ParseStrategy(s.Strategy, s.FlatP); err != nil {
		return fmt.Errorf("scenario: %v", err)
	}
	for _, f := range []struct {
		key string
		v   float64
	}{
		{"flat_p", s.FlatP}, {"radius_quantile", s.RadiusQuantile}, {"best_fraction", s.BestFraction},
		{"noise", s.Noise}, {"trace_sample", s.TraceSample},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("scenario: %s %v outside [0, 1]", f.key, f.v)
		}
	}
	if s.Loss < 0 || s.Loss >= 1 {
		return fmt.Errorf("scenario: loss %v outside [0, 1)", s.Loss)
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario: no phases")
	}
	for i := range s.Phases {
		if err := s.validatePhase(&s.Phases[i]); err != nil {
			return fmt.Errorf("scenario: phase %q: %v", s.Phases[i].Name, err)
		}
	}
	return nil
}

func (s *Spec) validatePhase(p *Phase) error {
	if p.Duration <= 0 {
		return fmt.Errorf("duration must be positive")
	}
	for i := range p.Traffic {
		t := &p.Traffic[i]
		switch t.Kind {
		case TrafficConstant, TrafficPoisson, TrafficBurst:
		default:
			return fmt.Errorf("traffic %d: unknown kind %q", i, t.Kind)
		}
		if t.Rate <= 0 {
			return fmt.Errorf("traffic %d: rate must be positive", i)
		}
		switch t.Senders {
		case SendersRoundRobin, SendersUniform, SendersZipf:
		case SendersFixed:
			if len(t.FixedSenders) == 0 {
				return fmt.Errorf("traffic %d: fixed senders need fixed_senders", i)
			}
			for _, n := range t.FixedSenders {
				if n < 0 || n >= s.Nodes {
					return fmt.Errorf("traffic %d: sender %d outside [0, %d)", i, n, s.Nodes)
				}
			}
		default:
			return fmt.Errorf("traffic %d: unknown senders %q", i, t.Senders)
		}
		max := t.PayloadSize
		if t.PayloadMax > max {
			max = t.PayloadMax
		}
		if max > msg.MaxPayload {
			return fmt.Errorf("traffic %d: payload %d exceeds wire limit %d", i, max, msg.MaxPayload)
		}
	}
	for i := range p.Churn {
		c := &p.Churn[i]
		switch c.Kind {
		case ChurnJoinWave, ChurnFlashCrowd, ChurnLeaveWave, ChurnCrashWave, ChurnKillBest:
		default:
			return fmt.Errorf("churn %d: unknown kind %q", i, c.Kind)
		}
		if (c.Count > 0) == (c.Fraction > 0) {
			return fmt.Errorf("churn %d: set exactly one of count and fraction", i)
		}
		if c.Fraction < 0 || c.Fraction > 1 {
			return fmt.Errorf("churn %d: fraction %v outside [0, 1]", i, c.Fraction)
		}
		if c.At < 0 || c.At > p.Duration {
			return fmt.Errorf("churn %d: offset %v outside the phase", i, c.At.D())
		}
		if c.At+c.Over > p.Duration {
			return fmt.Errorf("churn %d: window %v+%v exceeds the phase", i, c.At.D(), c.Over.D())
		}
	}
	for i := range p.Network {
		e := &p.Network[i]
		if e.At < 0 || e.At > p.Duration {
			return fmt.Errorf("network %d: offset %v outside the phase", i, e.At.D())
		}
		switch e.Kind {
		case NetLatencyFactor:
			if e.Factor <= 0 {
				return fmt.Errorf("network %d: latency factor must be positive", i)
			}
		case NetExtraLatency:
			if e.Extra < 0 {
				return fmt.Errorf("network %d: extra latency must be non-negative", i)
			}
		case NetLoss:
			if e.Loss < 0 || e.Loss >= 1 {
				return fmt.Errorf("network %d: loss %v outside [0, 1)", i, e.Loss)
			}
		case NetPartition:
			if len(e.Groups) == 0 && (e.Split <= 0 || e.Split >= 1) {
				return fmt.Errorf("network %d: partition needs groups or split in (0, 1)", i)
			}
			// Out-of-range members would be silently ignored by the
			// emulator, turning the partition into a no-op — reject
			// them here so typos fail loudly.
			total := s.Nodes + s.Joiners()
			for _, group := range e.Groups {
				for _, n := range group {
					if n < 0 || n >= total {
						return fmt.Errorf("network %d: partition member %d outside [0, %d)", i, n, total)
					}
				}
			}
		case NetHeal:
		case NetFaultLink:
			r := e.FaultRule()
			if err := r.Validate(); err != nil {
				return fmt.Errorf("network %d: %v", i, err)
			}
			total := s.Nodes + s.Joiners()
			for _, n := range append(append([]int{}, e.From...), e.To...) {
				if n < 0 || n >= total {
					return fmt.Errorf("network %d: fault scope node %d outside [0, %d)", i, n, total)
				}
			}
		case NetFaultClear:
		case NetFaultStall, NetFaultCrash, NetFaultSlow:
			if len(e.Nodes) == 0 {
				return fmt.Errorf("network %d: %s needs nodes", i, e.Kind)
			}
			total := s.Nodes + s.Joiners()
			for _, n := range e.Nodes {
				if n < 0 || n >= total {
					return fmt.Errorf("network %d: fault victim %d outside [0, %d)", i, n, total)
				}
			}
			switch e.Kind {
			case NetFaultStall:
				if e.For <= 0 {
					return fmt.Errorf("network %d: fault-stall needs a positive for duration", i)
				}
			case NetFaultSlow:
				if e.Delay <= 0 && e.DelayJitter <= 0 {
					return fmt.Errorf("network %d: fault-slow needs delay or delay_jitter", i)
				}
			}
		default:
			return fmt.Errorf("network %d: unknown kind %q", i, e.Kind)
		}
	}
	return nil
}

// ChurnCount resolves a churn event's size against the initial overlay:
// Count when set, else Fraction of Spec.Nodes rounded half-up. Exported
// so every engine playing a Spec — the simulator and the live harness —
// sizes waves from one definition.
func (s *Spec) ChurnCount(c *ChurnSpec) int {
	if c.Count > 0 {
		return c.Count
	}
	return int(c.Fraction*float64(s.Nodes) + 0.5)
}

// Joiners returns the total number of fresh nodes the scenario's join
// churn needs provisioned.
func (s *Spec) Joiners() int {
	total := 0
	for i := range s.Phases {
		for j := range s.Phases[i].Churn {
			c := &s.Phases[i].Churn[j]
			if c.Kind == ChurnJoinWave || c.Kind == ChurnFlashCrowd {
				total += s.ChurnCount(c)
			}
		}
	}
	return total
}
