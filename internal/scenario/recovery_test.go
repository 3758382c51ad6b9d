package scenario

import "testing"

// TestRecoveryTimeAfterCrashWave: an instantaneous crash wave under eager
// push must be absorbed quickly — the survivors keep receiving every
// message — so the recovery time is bounded below by one dissemination
// latency and above by the remainder of the phase.
func TestRecoveryTimeAfterCrashWave(t *testing.T) {
	spec := testSpec(
		Phase{Name: "steady", Duration: sec(15), Traffic: poisson(4)},
		Phase{
			Name: "shock", Duration: sec(30), Traffic: poisson(4),
			Churn: []ChurnSpec{{Kind: ChurnCrashWave, Count: 6, At: sec(5)}},
		},
	)
	rep := run(t, spec)
	if got := rep.Phases[0].Metrics.RecoveryMS; got != 0 {
		t.Fatalf("undisrupted phase has recovery %v, want 0", got)
	}
	rec := rep.Phases[1].Metrics.RecoveryMS
	if rec <= 0 {
		t.Fatalf("shock phase recovery = %v, want > 0 (disruption at 5s must be measured)", rec)
	}
	// The event fires 5 s into a 30 s phase: sustained full delivery must
	// resume within the remaining 25 s for the metric to be meaningful.
	if rec > 25000 {
		t.Fatalf("shock phase recovery = %.0f ms, want <= 25000", rec)
	}
	if rep.Overall.RecoveryMS != rec {
		t.Fatalf("overall recovery %v != worst phase %v", rep.Overall.RecoveryMS, rec)
	}
}

// TestRecoveryTimeAfterFaultCrash: a fault-crash is the targeted sibling
// of the crash wave, so a phase whose only disruption is one is marked
// and measured like a crash wave.
func TestRecoveryTimeAfterFaultCrash(t *testing.T) {
	rep := run(t, testSpec(
		Phase{Name: "steady", Duration: sec(10), Traffic: poisson(4)},
		Phase{
			Name: "crash", Duration: sec(20), Traffic: poisson(4),
			Network: []NetEvent{{At: sec(5), Kind: NetFaultCrash, Nodes: []int{3, 7, 11}}},
		},
	))
	if got := rep.Phases[1].Metrics.LiveNodes; got != 27 {
		t.Fatalf("live nodes after the fault-crash = %d, want 27", got)
	}
	if rec := rep.Phases[1].Metrics.RecoveryMS; rec == 0 {
		t.Fatal("fault-crash phase reports no recovery time: the disruption was never measured")
	}
}

// TestRecoveryTimeNeverHeals: a partition that is never healed keeps every
// message from reaching the far side, so the phase must report -1 — the
// disruption was never absorbed.
func TestRecoveryTimeNeverHeals(t *testing.T) {
	rep := run(t, testSpec(
		Phase{
			Name: "split", Duration: sec(30), Traffic: poisson(4),
			Network: []NetEvent{{At: sec(5), Kind: NetPartition, Split: 0.5}},
		},
	))
	if got := rep.Phases[0].Metrics.RecoveryMS; got != -1 {
		t.Fatalf("unhealed partition recovery = %v, want -1", got)
	}
	if rep.Overall.RecoveryMS != -1 {
		t.Fatalf("overall recovery = %v, want -1", rep.Overall.RecoveryMS)
	}
}

// TestRecoveryTimeUnmeasurable: a disruption with no traffic after it
// gives recovery nothing to judge by — the phase must report 0
// (unmeasured), not -1 (never recovered).
func TestRecoveryTimeUnmeasurable(t *testing.T) {
	rep := run(t, testSpec(
		Phase{Name: "load", Duration: sec(10), Traffic: poisson(4)},
		Phase{
			Name: "silent-crash", Duration: sec(10),
			Churn: []ChurnSpec{{Kind: ChurnCrashWave, Count: 4, At: sec(2)}},
		},
	))
	if got := rep.Phases[1].Metrics.RecoveryMS; got != 0 {
		t.Fatalf("silent disrupted phase recovery = %v, want 0 (unmeasured)", got)
	}
	if rep.Overall.RecoveryMS != 0 {
		t.Fatalf("overall recovery = %v, want 0", rep.Overall.RecoveryMS)
	}
}

// TestRecoveryTimeAfterHeal: the heal event of a partition-heal scenario
// is itself a measured disruption boundary — the healed phase reports how
// fast full delivery resumed once the network re-knit.
func TestRecoveryTimeAfterHeal(t *testing.T) {
	rep := run(t, testSpec(
		Phase{Name: "steady", Duration: sec(10), Traffic: poisson(4)},
		Phase{
			Name: "split", Duration: sec(15), Traffic: poisson(4),
			Network: []NetEvent{{Kind: NetPartition, Split: 0.5}},
		},
		Phase{
			Name: "healed", Duration: sec(20), Traffic: poisson(4),
			Network: []NetEvent{{Kind: NetHeal}},
		},
	))
	rec := rep.Phases[2].Metrics.RecoveryMS
	if rec <= 0 || rec > 20000 {
		t.Fatalf("healed phase recovery = %v, want in (0, 20000] ms", rec)
	}
}
