package sim_test

import (
	"testing"
	"time"

	"emcast/internal/scenario"
)

// TestLateJoinersCatchUp: nodes joining mid-run through the Join protocol
// must integrate into the overlay and deliver the messages multicast after
// they joined.
func TestLateJoinersCatchUp(t *testing.T) {
	const nodes, joiners = 40, 8
	spec := testSpec(nodes, 60, "ttl")
	spec.Drain = scenario.Duration(20 * time.Second)
	traffic := &spec.Phases[0]
	traffic.Churn = []scenario.ChurnSpec{{Kind: scenario.ChurnJoinWave, Count: joiners, Over: traffic.Duration / 2}}
	r, res := play(t, spec)
	if res.DeliveryRate < 0.99 {
		t.Fatalf("original nodes delivery rate %.3f", res.DeliveryRate)
	}
	if res.JoinerCoverage < 0.95 {
		t.Fatalf("joiner coverage %.3f, want >= 0.95", res.JoinerCoverage)
	}
	// Every joiner must have recorded a join time.
	joined := 0
	for i := nodes; i < nodes+joiners; i++ {
		if _, ok := r.JoinedAt(i); ok {
			joined++
		}
	}
	if joined != joiners {
		t.Fatalf("joined = %d, want %d", joined, joiners)
	}
	if _, ok := r.JoinedAt(0); ok {
		t.Fatal("original node reported a join time")
	}
}

// TestNoChurnNeutralCoverage: runs without joiners report coverage 1.
func TestNoChurnNeutralCoverage(t *testing.T) {
	_, res := play(t, testSpec(20, 10, "eager"))
	if res.JoinerCoverage != 1 {
		t.Fatalf("JoinerCoverage = %v without churn", res.JoinerCoverage)
	}
}
