package scenario

import (
	"testing"
	"time"

	"emcast/internal/emunet"
	"emcast/internal/ids"
	"emcast/internal/lazy"
	"emcast/internal/peer"
	"emcast/internal/strategy"
	"emcast/internal/trace"
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
// deterministic. A payload cache C of rounds alone over one refcounted
// store reads 39,969 B for lazy push and 17,664 B for eager; C's entries
// holding a payload slice and an int round read 70,749 B for lazy push.
// Compact ID tables (a 4-byte index over dense entries, the entry arrays
// doubling as the FIFO) read 70,763 B and 19,532 B where open-addressing
// slots of whole entries plus a separate FIFO of keys read 95,408 B and
// 31,889 B. The evicted case pins that C's eviction gives the store its
// bytes back.
func TestRetainedBytesPerNode(t *testing.T) {
	for _, c := range []struct {
		strategy string
		max      int64
	}{
		{"lazy", 41000},
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
	// A cache of two ids, on a shared store, after three lazy fan-outs:
	// the oldest id's hold went with its eviction, so the store keeps the
	// other two alone, and an IWANT for the oldest is a miss.
	t.Run("evicted", func(t *testing.T) {
		net := emunet.New(5, func(int, int) time.Duration { return 0 }, emunet.Config{})
		tracer := trace.NewStreaming()
		env := &peer.Env{Transport: netTransport{net: net, self: 1}, Clock: net, Timers: net}
		mod := lazy.New(lazy.Config{CacheCapacity: 2}, env, &strategy.Flat{P: 0}, tracer)
		store := &lazy.Payloads{}
		mod.SetPayloads(store)
		for i := byte(1); i <= 3; i++ {
			for to := peer.ID(2); to <= 4; to++ {
				mod.LSend(ids.ID{i}, make([]byte, 256), 1, to)
			}
		}
		mod.OnIWant(ids.ID{1}, 2)
		if misses := tracer.Checkpoint().RequestMisses; misses != 1 {
			t.Errorf("IWANT for the evicted id: %d request misses, want 1", misses)
		}
		for i := byte(1); i <= 3; i++ {
			if _, ok := store.Get(ids.ID{i}); ok != (i > 1) {
				t.Errorf("store holds id %d: %v, want %v", i, ok, i > 1)
			}
		}
		// The store's first 8 index slots × 4 B + 8 entries × (16-byte id
		// + 24-byte slice header + 8-byte holder count) = 416, and the two
		// kept 256-byte payloads: 928.
		const want = 8*4 + 8*(ids.IDSize+24+8) + 2*256
		if fp := store.Footprint(); fp.Items != 2 || fp.Bytes != want {
			t.Errorf("store footprint = %d B / %d entries, want %d B / 2", fp.Bytes, fp.Items, want)
		}
	})
}

// netTransport sends node self's frames on an emulated network.
type netTransport struct {
	net  *emunet.Network
	self peer.ID
}

// Send implements peer.Transport.
func (t netTransport) Send(to peer.ID, frame []byte) { t.net.Send(int(t.self), int(to), frame) }

// Local implements peer.Transport.
func (t netTransport) Local() peer.ID { return t.self }
