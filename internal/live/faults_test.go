package live

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"emcast/internal/obs"
	"emcast/internal/scenario"
)

// faultSpec plays every fault kind with a live realisation between a
// clean phase and a healed one: a drop+dup link rule, a slow pair, a
// stall and a targeted crash, all cleared as the last phase starts — the
// shape of examples/scenarios/chaos-faults.json, scaled down.
func faultSpec() scenario.Spec {
	traffic := []scenario.TrafficSpec{{Kind: scenario.TrafficConstant, Rate: 5}}
	return scenario.Spec{
		Name:          "live-faults",
		Seed:          11,
		Nodes:         8,
		Strategy:      "eager",
		TopologyScale: 8,
		Drain:         scenario.Duration(2 * time.Second),
		Phases: []scenario.Phase{
			{Name: "clean", Duration: scenario.Duration(time.Second), Traffic: traffic},
			{
				Name:     "chaotic",
				Duration: scenario.Duration(3 * time.Second),
				Traffic:  traffic,
				Network: []scenario.NetEvent{
					{At: scenario.Duration(300 * time.Millisecond), Kind: scenario.NetFaultLink, Drop: 0.4, Duplicate: 0.1},
					{At: scenario.Duration(500 * time.Millisecond), Kind: scenario.NetFaultSlow, Nodes: []int{2}, Delay: scenario.Duration(20 * time.Millisecond)},
					{At: scenario.Duration(800 * time.Millisecond), Kind: scenario.NetFaultStall, Nodes: []int{1}, For: scenario.Duration(time.Second)},
					{At: scenario.Duration(1200 * time.Millisecond), Kind: scenario.NetFaultCrash, Nodes: []int{7}},
				},
			},
			{
				Name:     "healed",
				Duration: scenario.Duration(time.Second),
				Traffic:  traffic,
				Network:  []scenario.NetEvent{{Kind: scenario.NetFaultClear}},
			},
		},
	}
}

// faultRun is one play of faultSpec on real sockets, with the goroutine
// counts before Run and once the closed fleet has unwound.
type faultRun struct {
	h      *Harness
	rep    *scenario.Report
	reg    *obs.Registry
	g0, g  int
	err    error
	played sync.Once
}

// sharedFaultRun plays faultSpec once per test binary: a live run takes
// seconds, and TestLiveFaultEventsPlay and TestChaosSoakRecovery judge
// the same run from two sides.
var sharedFaultRun faultRun

func playFaultSpec(t *testing.T) *faultRun {
	t.Helper()
	if testing.Short() {
		t.Skip("live fault playback takes several seconds")
	}
	r := &sharedFaultRun
	r.played.Do(func() {
		spec := faultSpec()
		r.reg = obs.NewRegistry()
		if r.h, r.err = New(spec, Options{Logf: t.Logf, Obs: r.reg}); r.err != nil {
			return
		}
		r.g0 = runtime.NumGoroutine()
		if r.rep, r.err = r.h.Run(); r.err != nil {
			return
		}
		// Run closes the fleet; what the transports leave behind
		// unwinds within moments.
		r.g = runtime.NumGoroutine()
		for deadline := time.Now().Add(10 * time.Second); r.g > r.g0 && time.Now().Before(deadline); r.g = runtime.NumGoroutine() {
			time.Sleep(50 * time.Millisecond)
		}
	})
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r
}

// TestLiveFaultEventsPlay drives the whole fault-* vocabulary through
// the harness on real sockets: the shared injector must have dropped and
// delayed frames (counted under the fault loss reason), the crash victim
// must be down, and after the clear the surviving fleet must still
// deliver.
func TestLiveFaultEventsPlay(t *testing.T) {
	spec := faultSpec()
	if err := supported(&spec); err != nil {
		t.Fatalf("fault events rejected by Supported: %v", err)
	}
	r := playFaultSpec(t)
	if r.h.Faults() == nil {
		t.Fatal("fault spec did not provision an injector")
	}
	if s := r.h.Faults().Stats(); s.Dropped == 0 || s.Delayed == 0 {
		t.Fatalf("injector stats show no activity: %+v", s)
	}
	if fs := r.h.tcp.stats(); fs.LostFault == 0 {
		t.Fatalf("no frames accounted to the fault reason: %+v", fs)
	}
	if r.rep.Overall.LiveNodes != spec.Nodes-1 {
		t.Fatalf("live nodes %d, want %d (one crash victim)", r.rep.Overall.LiveNodes, spec.Nodes-1)
	}
	// Post-clear traffic plus the drain: survivors keep delivering.
	if r.rep.Overall.DeliveryRate < 0.5 {
		t.Fatalf("delivery rate %.3f after heal, want >= 0.5", r.rep.Overall.DeliveryRate)
	}
}

// TestChaosSoakRecovery holds the faultSpec run to the recovery
// invariants `emucast chaos` judges: atomic delivery before the faults
// and after the clear, and no goroutine left behind once Run returns.
// The graceful close must announce departures, and the obs plane must
// carry the fault-labelled losses.
func TestChaosSoakRecovery(t *testing.T) {
	r := playFaultSpec(t)
	for _, i := range []int{0, len(r.rep.Phases) - 1} {
		if p := r.rep.Phases[i]; p.Metrics.AtomicRate != 1 {
			t.Errorf("phase %q atomic rate %.3f over %d messages, want 1", p.Name, p.Metrics.AtomicRate, p.Metrics.MessagesSent)
		}
	}
	if r.g > r.g0 {
		t.Errorf("%d goroutines before Run, %d after: leaked", r.g0, r.g)
	}
	if fs := r.h.tcp.stats(); fs.DeparturesSent == 0 {
		t.Errorf("graceful close sent no departures: %+v", fs)
	}
	if v, ok := obs.Scalars(r.reg.Snapshot())[`neem_frames_lost{reason="fault"}`]; !ok || v == 0 {
		t.Fatalf("neem_frames_lost{reason=fault} = %v (ok=%v), want > 0", v, ok)
	}
}

// TestLiveFaultFreeSpecHasNoInjector: the fault plane costs nothing when
// unused — no injector is provisioned for a plain spec.
func TestLiveFaultFreeSpecHasNoInjector(t *testing.T) {
	h, err := New(noLossSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h.Faults() != nil {
		t.Fatal("fault-free spec provisioned an injector")
	}
}

// TestCrashDuringJoin is the regression test for crash/join interleaving:
// joiners enter through live contacts while a crash wave removes nodes —
// including, sometimes, the very contact a joiner picked. The run must
// complete (no wedged address book or membership view) and the surviving
// fleet must keep delivering.
func TestCrashDuringJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("live churn playback takes several seconds")
	}
	spec := scenario.Spec{
		Name:          "crash-during-join",
		Seed:          5,
		Nodes:         8,
		Strategy:      "eager",
		TopologyScale: 8,
		Drain:         scenario.Duration(2 * time.Second),
		Phases: []scenario.Phase{
			{
				Name:     "turbulent",
				Duration: scenario.Duration(4 * time.Second),
				Traffic:  []scenario.TrafficSpec{{Kind: scenario.TrafficConstant, Rate: 5}},
				Churn: []scenario.ChurnSpec{
					{Kind: scenario.ChurnJoinWave, At: scenario.Duration(500 * time.Millisecond), Count: 4, Over: scenario.Duration(2 * time.Second)},
				},
				Network: []scenario.NetEvent{
					// Crashes land mid join wave, so some joiners lose
					// their contact or view seeds while joining.
					{At: scenario.Duration(time.Second), Kind: scenario.NetFaultCrash, Nodes: []int{2, 5}},
					{At: scenario.Duration(1700 * time.Millisecond), Kind: scenario.NetFaultCrash, Nodes: []int{3}},
				},
			},
		},
	}

	h, err := New(spec, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var rep *scenario.Report
	go func() {
		defer close(done)
		rep, err = h.Run()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("crash-during-join run wedged")
	}
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overall.LiveNodes != 9 {
		t.Fatalf("live nodes %d, want 9 (8 originals - 3 crashes + 4 joiners)", rep.Overall.LiveNodes)
	}
	if rep.Overall.MessagesSent == 0 {
		t.Fatal("no messages sent through the turbulence")
	}
	if rep.Overall.DeliveryRate <= 0 {
		t.Fatalf("delivery rate %.3f, want > 0", rep.Overall.DeliveryRate)
	}
	// The address book stayed usable: every joiner that entered is
	// either up or was itself crashed — fleet counters kept moving.
	if fs := h.tcp.stats(); fs.FramesSent == 0 {
		t.Fatalf("fleet sent nothing: %+v", fs)
	}
}
