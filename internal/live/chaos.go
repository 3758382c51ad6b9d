package live

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"emcast"
	"emcast/internal/faults"
	"emcast/internal/ids"
	"emcast/internal/neem"
	"emcast/internal/obs"
)

// ChaosConfig tunes a chaos soak: a live TCP fleet driven through a
// fault schedule (link drop, a crash wave, a stall) with delivery
// coverage measured before, during and after, plus a goroutine-leak
// check around the whole run. Zero values take the defaults the nightly
// soak uses.
type ChaosConfig struct {
	// Nodes is the fleet size (default 32).
	Nodes int
	// Seed drives victim selection and the fault injector (default 1).
	Seed int64
	// Strategy is the gossip strategy (default "eager"; any strategy a
	// TCP fleet supports).
	Strategy string
	// Fanout overrides the gossip fanout (default: protocol default).
	Fanout int
	// Warmup is the settling time before the baseline wave (default 2s).
	Warmup time.Duration
	// Drop is the injected per-frame drop probability on every link
	// while faults are active (default 0.3).
	Drop float64
	// Crashes is the crash wave size (default 3).
	Crashes int
	// Stall freezes one surviving peer's transport for this long
	// (default 10s; 0 disables the stall).
	Stall time.Duration
	// WaveMsgs is the number of multicasts per coverage wave, each from
	// a different sender (default 5).
	WaveMsgs int
	// WaveTimeout bounds the baseline and fault waves (default 15s).
	WaveTimeout time.Duration
	// HealWindow bounds the recovery: after faults clear, delivery
	// coverage must return to 100% across survivors within this wall
	// window (default 30s).
	HealWindow time.Duration
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...interface{})
	// Obs, when set, receives the fleet instruments (the registration the
	// scenario harness uses), so soak assertions can read
	// neem_frames_lost{reason} and friends.
	Obs *obs.Registry
	// Timeline, when set, receives the recovery timeline as JSONL — one
	// record per wave/fault/heal event with wall offsets and coverage.
	Timeline io.Writer
}

func (c *ChaosConfig) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Strategy == "" {
		c.Strategy = "eager"
	}
	if c.Warmup <= 0 {
		c.Warmup = 2 * time.Second
	}
	if c.Drop == 0 {
		c.Drop = 0.3
	}
	if c.Crashes == 0 {
		c.Crashes = 3
	}
	if c.Stall == 0 {
		c.Stall = 10 * time.Second
	}
	if c.WaveMsgs <= 0 {
		c.WaveMsgs = 5
	}
	if c.WaveTimeout <= 0 {
		c.WaveTimeout = 15 * time.Second
	}
	if c.HealWindow <= 0 {
		c.HealWindow = 30 * time.Second
	}
}

// ChaosResult is what a soak measured. Recovered is the headline
// invariant; the rest is evidence.
type ChaosResult struct {
	Nodes   int   `json:"nodes"`
	Seed    int64 `json:"seed"`
	Crashed []int `json:"crashed"`
	Stalled []int `json:"stalled"`

	// Coverage per wave: fraction of (survivor, message) pairs delivered
	// by the wave deadline. Baseline and heal should hit 1; the fault
	// wave is informational (frames are being dropped on purpose).
	BaselineCoverage float64 `json:"baseline_coverage"`
	FaultCoverage    float64 `json:"fault_coverage"`
	HealCoverage     float64 `json:"heal_coverage"`

	// Recovered reports whether the heal wave reached 100% coverage
	// within the heal window; HealTime is how long that took.
	Recovered bool          `json:"recovered"`
	HealTime  time.Duration `json:"heal_time"`

	// Transport is the fleet-aggregate transport view at shutdown
	// (crashed peers' final snapshots included) and Injector the fault
	// plane's own activity counters.
	Transport neem.Stats   `json:"transport"`
	Injector  faults.Stats `json:"injector"`

	// DeparturesHeard counts OnDeparture callbacks across the fleet:
	// graceful closes announce, crashes must not.
	DeparturesHeard uint64 `json:"departures_heard"`

	// GoroutinesStart/End bracket the run; Leaked is how many the run
	// left behind after shutdown settled (0 in a healthy run).
	GoroutinesStart int `json:"goroutines_start"`
	GoroutinesEnd   int `json:"goroutines_end"`
	Leaked          int `json:"leaked"`

	Elapsed time.Duration `json:"elapsed"`
}

// chaosRun is one soak in progress: the fleet plus the recovery timeline.
type chaosRun struct {
	*fleet
	timeline *json.Encoder // nil = no timeline
}

// event appends one JSONL record to the recovery timeline.
func (c *chaosRun) event(kind string, fields map[string]interface{}) {
	if c.timeline == nil {
		return
	}
	rec := map[string]interface{}{
		"t_s":   time.Since(c.epoch).Seconds(),
		"event": kind,
	}
	for k, v := range fields {
		rec[k] = v
	}
	_ = c.timeline.Encode(rec)
}

// wave multicasts n messages from n distinct senders and polls until
// every survivor delivered every message or the deadline passes,
// returning the final coverage fraction and how long full coverage took
// (or the deadline when it was never reached).
func (c *chaosRun) wave(name string, n int, deadline time.Duration) (float64, time.Duration) {
	ids := c.LiveAll()
	if len(ids) == 0 {
		return 0, 0
	}
	peers := make([]*emcast.Peer, len(ids))
	for i, id := range ids {
		peers[i] = c.peer(id)
	}
	msgs := make([]emcast.MessageID, n)
	for i := range msgs {
		msgs[i] = peers[i*len(peers)/n].Multicast([]byte(fmt.Sprintf("chaos-%s-%d", name, i)))
	}

	start := time.Now()
	var coverage float64
	for {
		delivered := 0
		for _, p := range peers {
			for _, m := range msgs {
				if p.Delivered(m) {
					delivered++
				}
			}
		}
		if total := len(peers) * len(msgs); total > 0 {
			coverage = float64(delivered) / float64(total)
		}
		if coverage >= 1 || time.Since(start) >= deadline {
			took := time.Since(start)
			c.logf("chaos: wave %q coverage %.3f after %v", name, coverage, took.Round(time.Millisecond))
			c.event("wave", map[string]interface{}{
				"name": name, "coverage": coverage,
				"messages": len(msgs), "peers": len(peers),
				"took_s": took.Seconds(),
			})
			return coverage, took
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// RunChaos runs one chaos soak: start a fleet, measure baseline
// delivery coverage, inject link drop + a crash wave + a stall, measure
// under fire, heal, and require coverage back at 100% within the heal
// window — then shut down gracefully and check no goroutines leaked.
// The error is non-nil only for setup failures; invariant violations
// are reported in the result so callers choose what is fatal.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	cfg.fill()
	// Let the runtime settle before counting the baseline goroutines
	// (earlier tests or GC workers may still be winding down).
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	g0 := runtime.NumGoroutine()

	var departures atomic.Uint64
	inj := faults.New(cfg.Seed ^ 0x0fa17a11)
	base := emcast.PeerConfig{
		Fanout:      cfg.Fanout,
		Faults:      inj,
		OnDeparture: func(emcast.NodeID) { departures.Add(1) },
	}
	if err := strategyConfig(&base, cfg.Strategy); err != nil {
		return nil, fmt.Errorf("chaos: %v", err)
	}
	c := &chaosRun{fleet: newFleet(base, cfg.Seed, cfg.Logf)}
	if cfg.Timeline != nil {
		c.timeline = json.NewEncoder(cfg.Timeline)
	}
	if err := c.start(cfg.Nodes); err != nil {
		return nil, fmt.Errorf("chaos: %v", err)
	}
	c.attachObs(cfg.Obs)
	defer c.releaseObs()

	res := &ChaosResult{Nodes: cfg.Nodes, Seed: cfg.Seed}
	c.event("run_start", map[string]interface{}{
		"nodes": cfg.Nodes, "seed": cfg.Seed, "strategy": cfg.Strategy,
		"drop": cfg.Drop, "crashes": cfg.Crashes, "stall_s": cfg.Stall.Seconds(),
	})
	c.logf("chaos: %d peers up, warming %v", cfg.Nodes, cfg.Warmup)
	time.Sleep(cfg.Warmup)

	// Phase 1: baseline — the fleet must deliver cleanly before we break it.
	res.BaselineCoverage, _ = c.wave("baseline", cfg.WaveMsgs, cfg.WaveTimeout)

	// Phase 2: inject. Link drop everywhere, a crash wave, one stall.
	if err := inj.Install(faults.LinkRule{Drop: cfg.Drop}); err != nil {
		c.closeAll()
		return nil, fmt.Errorf("chaos: install drop rule: %v", err)
	}
	c.logf("chaos: injected %.0f%% link drop", cfg.Drop*100)
	c.event("fault_injected", map[string]interface{}{"drop": cfg.Drop})

	// Victim selection is seeded: crash victims are drawn from a
	// splitmix64 stream over the survivors above the lowest id, the stall
	// victim is the lowest survivor, so reruns with one seed kill the same
	// nodes (the injector's draws are already deterministic).
	rng := uint64(cfg.Seed)
	survivors := c.LiveAll()
	for i := 0; i < cfg.Crashes && len(survivors) > 2; i++ {
		rng = ids.Mix64(rng)
		victim := survivors[int(rng%uint64(len(survivors)-1))+1]
		c.Kill(victim, false)
		c.event("crash", map[string]interface{}{"node": victim})
		res.Crashed = append(res.Crashed, victim)
		survivors = c.LiveAll()
	}
	sort.Ints(res.Crashed)

	if cfg.Stall > 0 {
		victim := survivors[0] // never empty: the crash wave spares two
		c.peer(victim).Stall(cfg.Stall)
		res.Stalled = []int{victim}
		c.logf("chaos: node %d stalled for %v", victim, cfg.Stall)
		c.event("stall", map[string]interface{}{"node": victim, "for_s": cfg.Stall.Seconds()})
	}

	// Phase 3: coverage under fire — informational; the drop rule is
	// actively losing frames and a survivor is frozen.
	faultDeadline := cfg.WaveTimeout
	if cfg.Stall > faultDeadline {
		faultDeadline = cfg.Stall
	}
	res.FaultCoverage, _ = c.wave("faulted", cfg.WaveMsgs, faultDeadline)

	// Phase 4: heal and require full recovery within the window. By now
	// the stall has expired (the fault wave waited at least that long).
	inj.Clear()
	c.logf("chaos: faults cleared, heal window %v", cfg.HealWindow)
	c.event("heal", nil)
	res.HealCoverage, res.HealTime = c.wave("heal", cfg.WaveMsgs, cfg.HealWindow)
	res.Recovered = res.HealCoverage >= 1
	c.event("recovered", map[string]interface{}{
		"recovered": res.Recovered, "coverage": res.HealCoverage, "took_s": res.HealTime.Seconds(),
	})

	// Phase 5: graceful shutdown — every survivor announces departure,
	// queues drain, and the goroutine count must settle back.
	c.closeAll()

	// The transports stop synchronously in Close, but handler callbacks
	// and runtime bookkeeping take a moment to unwind; poll briefly.
	settle := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= g0 || time.Now().After(settle) {
			res.GoroutinesEnd = g
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	res.GoroutinesStart = g0
	if res.GoroutinesEnd > g0 {
		res.Leaked = res.GoroutinesEnd - g0
	}

	res.Transport = c.stats()
	res.Injector = inj.Stats()
	res.DeparturesHeard = departures.Load()
	res.Elapsed = time.Since(c.epoch)
	c.event("run_end", map[string]interface{}{
		"leaked": res.Leaked, "elapsed_s": res.Elapsed.Seconds(),
		"reconnects": res.Transport.Reconnects, "lost_fault": res.Transport.LostFault,
	})
	return res, nil
}
