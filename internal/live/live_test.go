package live

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"emcast/internal/scenario"
)

// noLossSpec is a short 8-node loopback scenario with nothing working
// against delivery: no loss, no churn, reliable TCP. Playback must reach
// 100% delivery — the live determinism bound.
func noLossSpec() scenario.Spec {
	return scenario.Spec{
		Name:          "live-unit",
		Seed:          3,
		Nodes:         8,
		Strategy:      "eager",
		TopologyScale: 8,
		Drain:         scenario.Duration(2 * time.Second),
		Phases: []scenario.Phase{
			{
				Name:     "steady",
				Duration: scenario.Duration(2 * time.Second),
				Traffic:  []scenario.TrafficSpec{{Kind: scenario.TrafficConstant, Rate: 5}},
			},
		},
	}
}

// TestLiveNoLossFullDelivery pins the live playback determinism bound: a
// short 8-node run on a no-loss loopback scenario reaches 100% delivery,
// and its Report's reliability/recovery fields pass Diff against the
// simulator's prediction for the same spec within default tolerances.
func TestLiveNoLossFullDelivery(t *testing.T) {
	spec := noLossSpec()

	h, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	liveRep, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}

	if liveRep.Overall.MessagesSent == 0 {
		t.Fatal("no messages sent")
	}
	if liveRep.Overall.DeliveryRate != 1 {
		t.Fatalf("delivery rate %.4f on a no-loss loopback run, want 1", liveRep.Overall.DeliveryRate)
	}
	if liveRep.Overall.AtomicRate != 1 {
		t.Fatalf("atomic rate %.4f on a no-loss loopback run, want 1", liveRep.Overall.AtomicRate)
	}
	if liveRep.Overall.LiveNodes != spec.Nodes {
		t.Fatalf("live nodes %d, want %d", liveRep.Overall.LiveNodes, spec.Nodes)
	}
	if got, want := len(liveRep.Phases), len(spec.Phases); got != want {
		t.Fatalf("phases %d, want %d", got, want)
	}

	eng, err := scenario.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	simRep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The simulator predicts the same message schedule: stream seeds are
	// shared, so live plays exactly the arrivals the simulator played.
	if liveRep.Overall.MessagesSent != simRep.Overall.MessagesSent {
		t.Fatalf("live sent %d messages, sim sent %d — schedules diverged",
			liveRep.Overall.MessagesSent, simRep.Overall.MessagesSent)
	}

	d := Compare(simRep, liveRep, nil)
	if !d.OK {
		t.Fatalf("live diff outside tolerances:\n%s", d.String())
	}
	if d.String() == "" {
		t.Fatal("empty diff rendering")
	}
}

// TestLiveReportSchemaMatchesSim pins the live Report schema to the sim
// Report schema: for the same spec, both reports marshal to JSON with the
// same key structure, so every downstream consumer (sweep flattening,
// diffing, dashboards) reads either interchangeably.
func TestLiveReportSchemaMatchesSim(t *testing.T) {
	spec := noLossSpec()
	h, err := New(spec, Options{TimeScale: 2})
	if err != nil {
		t.Fatal(err)
	}
	liveRep, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := scenario.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	simRep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}

	liveKeys, simKeys := jsonKeys(t, liveRep), jsonKeys(t, simRep)
	if len(liveKeys) == 0 {
		t.Fatal("no keys extracted from the live report")
	}
	if got, want := fmt.Sprint(liveKeys), fmt.Sprint(simKeys); got != want {
		t.Fatalf("live report schema drifted from sim report schema:\nlive: %v\nsim:  %v", liveKeys, simKeys)
	}
}

// jsonKeys returns the sorted set of key paths in a report's JSON.
func jsonKeys(t *testing.T, rep *scenario.Report) []string {
	t.Helper()
	enc, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var v interface{}
	if err := json.Unmarshal(enc, &v); err != nil {
		t.Fatal(err)
	}
	set := make(map[string]bool)
	var walk func(prefix string, v interface{})
	walk = func(prefix string, v interface{}) {
		switch v := v.(type) {
		case map[string]interface{}:
			for k, c := range v {
				p := prefix + "." + k
				set[p] = true
				walk(p, c)
			}
		case []interface{}:
			for _, c := range v {
				walk(prefix+"[]", c)
			}
		}
	}
	walk("", v)
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestLiveChurn drives join and crash waves on real sockets: joiners
// enter through the Join protocol with ephemeral ports, a victim is
// hard-killed, and the report accounts for both.
func TestLiveChurn(t *testing.T) {
	spec := scenario.Spec{
		Name:     "live-churn-unit",
		Seed:     5,
		Nodes:    6,
		Strategy: "ttl",
		Drain:    scenario.Duration(2 * time.Second),
		Phases: []scenario.Phase{
			{
				Name:     "churny",
				Duration: scenario.Duration(3 * time.Second),
				Traffic:  []scenario.TrafficSpec{{Kind: scenario.TrafficConstant, Rate: 4}},
				Churn: []scenario.ChurnSpec{
					{Kind: scenario.ChurnJoinWave, Count: 2, At: scenario.Duration(500 * time.Millisecond), Over: scenario.Duration(time.Second)},
					{Kind: scenario.ChurnCrashWave, Count: 1, At: scenario.Duration(2 * time.Second)},
				},
			},
		},
	}
	h, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Joiners != 2 {
		t.Fatalf("joiners %d, want 2", rep.Joiners)
	}
	// 6 initial + 2 joined − 1 crashed.
	if rep.Overall.LiveNodes != 7 {
		t.Fatalf("live nodes %d, want 7", rep.Overall.LiveNodes)
	}
	if rep.Overall.MessagesSent == 0 || rep.Overall.Deliveries == 0 {
		t.Fatalf("no traffic recorded: %+v", rep.Overall)
	}
	if rep.Overall.DeliveryRate < 0.8 {
		t.Fatalf("delivery rate %.3f under mild churn", rep.Overall.DeliveryRate)
	}
	if rep.Overall.JoinerCoverage <= 0 {
		t.Fatalf("joiner coverage %.3f, want > 0", rep.Overall.JoinerCoverage)
	}
	// A crash wave is a disruption: the recovery field must be set
	// (recovered, or explicitly never-recovered) — not silently zero —
	// unless no traffic followed the event.
	if rep.Phases[0].Metrics.RecoveryMS == 0 {
		t.Logf("note: no post-crash traffic to judge recovery by")
	}
}

// TestLivePartitionHeal cuts the fleet in two through the link filter,
// then heals it; delivery inside the partition phase drops below 1 and
// the heal phase recovers.
func TestLivePartitionHeal(t *testing.T) {
	spec := scenario.Spec{
		Name:     "live-partition-unit",
		Seed:     7,
		Nodes:    6,
		Strategy: "eager",
		Drain:    scenario.Duration(2 * time.Second),
		Phases: []scenario.Phase{
			{
				Name:     "partitioned",
				Duration: scenario.Duration(2 * time.Second),
				Traffic:  []scenario.TrafficSpec{{Kind: scenario.TrafficConstant, Rate: 5}},
				Network:  []scenario.NetEvent{{Kind: scenario.NetPartition, Split: 0.5}},
			},
			{
				Name:     "healed",
				Duration: scenario.Duration(2 * time.Second),
				Traffic:  []scenario.TrafficSpec{{Kind: scenario.TrafficConstant, Rate: 5}},
				Network:  []scenario.NetEvent{{Kind: scenario.NetHeal}},
			},
		},
	}
	h, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	part, healed := rep.Phases[0].Metrics, rep.Phases[1].Metrics
	if part.DeliveryRate >= 0.99 {
		t.Fatalf("partition phase delivery %.3f — the cut did not bite", part.DeliveryRate)
	}
	if healed.DeliveryRate < 0.99 {
		t.Fatalf("healed phase delivery %.3f — the heal did not take", healed.DeliveryRate)
	}
}

func TestSupported(t *testing.T) {
	base := noLossSpec()
	if err := supported(&base); err != nil {
		t.Fatalf("no-loss spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*scenario.Spec)
	}{
		{"radius strategy", func(s *scenario.Spec) { s.Strategy = "radius" }},
		{"hybrid strategy", func(s *scenario.Spec) { s.Strategy = "hybrid" }},
		{"loss", func(s *scenario.Spec) { s.Loss = 0.1 }},
		{"noise", func(s *scenario.Spec) { s.Noise = 0.2 }},
		{"kill-best", func(s *scenario.Spec) {
			s.Phases[0].Churn = []scenario.ChurnSpec{{Kind: scenario.ChurnKillBest, Count: 1}}
		}},
		{"latency-factor", func(s *scenario.Spec) {
			s.Phases[0].Network = []scenario.NetEvent{{Kind: scenario.NetLatencyFactor, Factor: 2}}
		}},
		{"loss event", func(s *scenario.Spec) {
			s.Phases[0].Network = []scenario.NetEvent{{Kind: scenario.NetLoss, Loss: 0.1}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := noLossSpec()
			tc.mutate(&spec)
			if err := supported(&spec); err == nil {
				t.Fatalf("%s accepted for live playback", tc.name)
			}
			if _, err := New(spec, Options{}); err == nil {
				t.Fatalf("New accepted unsupported spec (%s)", tc.name)
			}
		})
	}
}

// TestSpecEmulatorOnlyKeys: the two oracle switches of a Spec choose
// between models only the emulator holds, so live playback must refuse
// them by name rather than run a fleet that ignores them.
func TestSpecEmulatorOnlyKeys(t *testing.T) {
	for key, set := range map[string]func(*scenario.Spec){
		"distance_metric": func(s *scenario.Spec) { s.DistanceMetric = true },
		"ewma_monitor":    func(s *scenario.Spec) { s.EWMAMonitor = true },
	} {
		spec := noLossSpec()
		set(&spec)
		if err := supported(&spec); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("%s: Supported = %v, want a refusal naming the key", key, err)
		}
	}
}

func TestHarnessRunsOnce(t *testing.T) {
	spec := noLossSpec()
	spec.Phases[0].Duration = scenario.Duration(200 * time.Millisecond)
	spec.Drain = scenario.Duration(time.Millisecond)
	h, err := New(spec, Options{Warmup: 50 * time.Millisecond, Drain: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}
