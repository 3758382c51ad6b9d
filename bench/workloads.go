package main

import (
	"fmt"
	"time"

	"emcast/internal/scenario"
)

// simDef is a simulator workload: one scenario.Spec shape, played through
// scenario.Engine. Traffic is 2 msg/s from uniformly random senders with
// 256 B payloads, in two phases plus a 5 s drain. The spacing is constant,
// not Poisson: every seed then sends the same number of messages, so the
// costs a run pays once (warm-up, shuffles, node state) weigh the same in
// every per-delivery figure and seeds differ in inputs, not in load.
type simDef struct {
	nodes    int
	strategy string
	flatP    float64
	scale    int           // topology scale-down factor (1 = paper-size routing)
	phase    time.Duration // virtual length of each of the two phases
	loss     float64
	crash    int // nodes crashed at crashAt into the second phase
}

// liveDef is a real-TCP workload: in-process emcast.Peers on loopback,
// eager strategy, driven by one generator goroutine.
type liveDef struct {
	peers   int
	payload int
	rate    float64 // open loop, messages per second; 0 = closed loop
	window  int     // closed loop: messages in flight
	timed   time.Duration
	// procs, when non-zero, is the child's GOMAXPROCS. The open loops run on
	// one P: they measure per-frame and per-byte cost below saturation, and
	// with a second, mostly idle P that cost swung by a third with how the
	// sandbox happened to place the two threads. The closed loop keeps every
	// core busy and runs on all of them.
	procs int
}

type workloadDef struct {
	sim  *simDef
	live *liveDef
}

const (
	simRate    = 2.0
	simPayload = 256
	simDrain   = 5 * time.Second
	// crashAt falls between two messages, so no multicast races the wave.
	crashAt = 2250 * time.Millisecond
)

// workloadDefs sizes every workload so one timed region takes 3-4 s on a
// 2-core box; a run repeats it in fresh processes and reports medians.
var workloadDefs = map[string]workloadDef{
	"sim-eager-1k":        {sim: &simDef{nodes: 1000, strategy: "eager", scale: 2, phase: 60 * time.Second}},
	"sim-lazy-1k":         {sim: &simDef{nodes: 1000, strategy: "lazy", scale: 2, phase: 60 * time.Second}},
	"sim-ranked-churn-1k": {sim: &simDef{nodes: 1000, strategy: "ranked", scale: 2, phase: 60 * time.Second, loss: 0.05, crash: 100}},
	"sim-flat-4k":         {sim: &simDef{nodes: 4000, strategy: "flat", flatP: 0.5, scale: 1, phase: 8 * time.Second}},
	"live-small":          {live: &liveDef{peers: 16, payload: 64, rate: 200, timed: 3 * time.Second, procs: 1}},
	"live-bulk":           {live: &liveDef{peers: 16, payload: 32 << 10, rate: 50, timed: 3 * time.Second, procs: 1}},
	"live-saturate":       {live: &liveDef{peers: 16, payload: 256, window: 8, timed: 3 * time.Second}},
}

// lookupWorkload returns the definition, shrunk for -quick: 100 nodes /
// 4 peers and a fraction of the run length, through the same code paths.
func lookupWorkload(name string, quick bool) (workloadDef, error) {
	def, ok := workloadDefs[name]
	if !ok {
		return def, fmt.Errorf("unknown workload %q", name)
	}
	if !quick {
		return def, nil
	}
	if def.sim != nil {
		s := *def.sim
		s.nodes, s.scale, s.phase = 100, 8, 4*time.Second
		if s.crash > 0 {
			s.crash = 10
		}
		return workloadDef{sim: &s}, nil
	}
	l := *def.live
	l.peers, l.timed = 4, 300*time.Millisecond
	if l.window > 0 {
		l.window = 2
	}
	return workloadDef{live: &l}, nil
}

// spec builds the scenario the simulator workloads run. Obs stays nil: the
// observability plane is measured on its own (obs.attach_overhead_share).
func (d *simDef) spec(name string, seed int64) scenario.Spec {
	traffic := []scenario.TrafficSpec{{
		Kind:        scenario.TrafficConstant,
		Rate:        simRate,
		Senders:     scenario.SendersUniform,
		PayloadSize: simPayload,
	}}
	second := scenario.Phase{Name: "second", Duration: scenario.Duration(d.phase), Traffic: traffic}
	if d.crash > 0 {
		second.Churn = []scenario.ChurnSpec{{Kind: scenario.ChurnCrashWave, Count: d.crash, At: scenario.Duration(crashAt)}}
	}
	return scenario.Spec{
		Name:          name,
		Seed:          seed,
		Nodes:         d.nodes,
		Strategy:      d.strategy,
		FlatP:         d.flatP,
		Loss:          d.loss,
		TopologyScale: d.scale,
		Drain:         scenario.Duration(simDrain),
		Phases: []scenario.Phase{
			{Name: "first", Duration: scenario.Duration(d.phase), Traffic: traffic},
			second,
		},
	}
}

// iteration is what one child process reports: one set-up plus one timed
// region of one workload.
type iteration struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
	// Attempted counts the multicasts of correct origins, Failed the ones
	// that reached fewer than multicastFloor of the correct processes.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Failures lists output checks that did not hold.
	Failures []string `json:"failures,omitempty"`
	// Fingerprint holds everything that must repeat exactly when a
	// simulator workload is run again with the same seed.
	Fingerprint string  `json:"fingerprint,omitempty"`
	WallS       float64 `json:"wall_s"`
	// Spans is the traced run's per-name ledger.
	Spans map[string]spanTotals `json:"spans,omitempty"`
	// Messages is the number of multicasts in the timed region, the
	// denominator of every per_msg figure.
	Messages int64 `json:"messages"`
}

func (it *iteration) failf(format string, args ...any) {
	it.Failures = append(it.Failures, fmt.Sprintf(format, args...))
}
