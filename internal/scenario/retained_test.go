package scenario

import (
	"testing"
	"time"
)

// warmSpec is the loaded 100-node run of the simulator pins: three
// 20-second phases of 10 messages a second, 256 bytes each, from uniform
// senders. The first phase warms every node's tables and scratch buffers
// up; TestAllocsPerDelivery measures over the second.
func warmSpec(strategy string) Spec {
	traffic := []TrafficSpec{{Kind: TrafficConstant, Rate: 10, Senders: SendersUniform, PayloadSize: 256}}
	phase := func(name string) Phase {
		return Phase{Name: name, Duration: Duration(20 * time.Second), Traffic: traffic}
	}
	return Spec{
		Name:          "warm-" + strategy,
		Seed:          1,
		Nodes:         100,
		Strategy:      strategy,
		TopologyScale: 8,
		Phases:        []Phase{phase("warm"), phase("measured"), phase("tail")},
	}
}

// TestRetainedBytesPerNode pins the lazy layer's retained state per node
// at the end of the warm run: the received set R, the payload cache C and
// the pending requests of every node, plus the shared payload store. The
// footprint is arithmetic over lengths and capacities, so the reading is
// deterministic. Compact ID tables (a 4-byte index over dense entries,
// the entry arrays doubling as the FIFO) read 70,763 B for lazy push and
// 19,532 B for eager; open-addressing slots of whole entries plus a
// separate FIFO of keys read 95,408 B and 31,889 B.
func TestRetainedBytesPerNode(t *testing.T) {
	for _, c := range []struct {
		strategy string
		max      int64
	}{
		{"lazy", 75000},
		{"eager", 21000},
	} {
		t.Run(c.strategy, func(t *testing.T) {
			spec := warmSpec(c.strategy)
			eng, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			eng.runner.Warmup()
			eng.player.Play(nil)
			var lazy int64
			for _, fp := range eng.runner.Footprints() {
				if fp.Subsystem == "lazy" {
					lazy = fp.Bytes
				}
			}
			per := lazy / int64(spec.Nodes)
			t.Logf("%s: lazy state %d B over %d nodes = %d B per node", c.strategy, lazy, spec.Nodes, per)
			if per > c.max {
				t.Errorf("%s: %d B of lazy state per node, want at most %d", c.strategy, per, c.max)
			}
		})
	}
}
