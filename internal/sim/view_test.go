package sim_test

import (
	"testing"
	"time"

	"emcast/internal/sim"
)

// TestMembershipFootprintFlat: a view is a bounded slice plus one bounded
// scratch buffer, so once shuffles have run for a while membership's
// retained bytes must stop moving. A leak in the view, such as an index
// that keeps evicted peers, grows them with run length instead. The bytes
// are exact: each of the 100 views holds 15 peers in a slice grown by
// append to cap 16 (64 B) and has merged a shuffle reply, which sizes its
// eviction pool at cap ShuffleSize = 7 (28 B), so 100 × 92 = 9,200 B.
func TestMembershipFootprintFlat(t *testing.T) {
	r := sim.New(testConfig(100))
	r.Warmup()
	membership := func() int64 {
		var bytes int64
		for _, n := range r.Nodes() {
			for _, fp := range n.Footprints() {
				if fp.Subsystem == "membership" {
					bytes += fp.Bytes
				}
			}
		}
		return bytes
	}
	r.RunFor(120 * time.Second)
	early := membership()
	r.RunFor(600 * time.Second)
	if late := membership(); late != early {
		t.Fatalf("membership footprint %d B at +120 s, %d B at +720 s: it must not grow with run length", early, late)
	}
	if want := int64(100 * (16*4 + 7*4)); early != want {
		t.Fatalf("membership footprint %d B, want %d B", early, want)
	}
	t.Logf("membership footprint %d B at +120 s and at +720 s", early)
}
