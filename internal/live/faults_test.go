package live

import (
	"testing"
	"time"

	"emcast/internal/obs"
	"emcast/internal/scenario"
)

// faultSpec plays every fault kind with a live realisation: a drop+dup
// link rule, a slow pair, a stall, a targeted crash, and a clear that
// heals it all before the drain.
func faultSpec() scenario.Spec {
	return scenario.Spec{
		Name:          "live-faults",
		Seed:          11,
		Nodes:         8,
		Strategy:      "eager",
		TopologyScale: 8,
		Drain:         scenario.Duration(2 * time.Second),
		Phases: []scenario.Phase{
			{
				Name:     "chaotic",
				Duration: scenario.Duration(4 * time.Second),
				Traffic:  []scenario.TrafficSpec{{Kind: scenario.TrafficConstant, Rate: 5}},
				Network: []scenario.NetEvent{
					{At: scenario.Duration(500 * time.Millisecond), Kind: scenario.NetFaultLink, Drop: 0.4, Duplicate: 0.1},
					{At: scenario.Duration(800 * time.Millisecond), Kind: scenario.NetFaultSlow, Nodes: []int{2}, Delay: scenario.Duration(20 * time.Millisecond)},
					{At: scenario.Duration(time.Second), Kind: scenario.NetFaultStall, Nodes: []int{1}, For: scenario.Duration(time.Second)},
					{At: scenario.Duration(1500 * time.Millisecond), Kind: scenario.NetFaultCrash, Nodes: []int{7}},
					{At: scenario.Duration(2500 * time.Millisecond), Kind: scenario.NetFaultClear},
				},
			},
		},
	}
}

// TestLiveFaultEventsPlay drives the whole fault-* vocabulary through
// the harness on real sockets: the run must complete, the shared
// injector must have dropped and delayed frames (counted under the
// fault loss reason), the crash victim must be down, and after the
// clear the surviving fleet must still deliver.
func TestLiveFaultEventsPlay(t *testing.T) {
	if testing.Short() {
		t.Skip("live fault playback takes several seconds")
	}
	spec := faultSpec()
	if err := Supported(&spec); err != nil {
		t.Fatalf("fault events rejected by Supported: %v", err)
	}
	reg := obs.NewRegistry()
	h, err := New(spec, Options{Logf: t.Logf, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if h.Faults() == nil {
		t.Fatal("fault spec did not provision an injector")
	}
	rep, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}

	if s := h.Faults().Stats(); s.Dropped == 0 || s.Delayed == 0 {
		t.Fatalf("injector stats show no activity: %+v", s)
	}
	fs := h.tcp.stats()
	if fs.LostFault == 0 {
		t.Fatalf("no frames accounted to the fault reason: %+v", fs)
	}
	if rep.Overall.LiveNodes != spec.Nodes-1 {
		t.Fatalf("live nodes %d, want %d (one crash victim)", rep.Overall.LiveNodes, spec.Nodes-1)
	}
	// Post-clear traffic plus the drain: survivors keep delivering.
	if rep.Overall.DeliveryRate < 0.5 {
		t.Fatalf("delivery rate %.3f after heal, want >= 0.5", rep.Overall.DeliveryRate)
	}
	if v, ok := reg.Value("neem_frames_lost", obs.Label{Key: "reason", Value: "fault"}); !ok || v == 0 {
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
