package emunet

import (
	"testing"
	"time"

	"emcast/internal/obs"
)

// breakdownInstruments wires every hot-loop instrument onto a fresh
// registry with the class labels the sim layer uses.
func breakdownInstruments(reg *obs.Registry) Instruments {
	return Instruments{
		Events:        reg.Counter("sim_events_total", ""),
		DeliverEvents: reg.Counter("sim_events_class_total", "", obs.Label{Key: "class", Value: "deliver"}),
		TimerEvents:   reg.Counter("sim_events_class_total", "", obs.Label{Key: "class", Value: "timer"}),
	}
}

// TestEventClassBreakdown pins the hot-loop accounting: deliver and timer
// class counts must sum to the total event count and mirror the plain
// counters.
func TestEventClassBreakdown(t *testing.T) {
	n := New(3, constLatency(5*time.Millisecond), Config{})
	reg := obs.NewRegistry()
	n.SetInstruments(breakdownInstruments(reg))
	rec := &recorder{net: n}
	n.Register(1, rec)
	n.Register(2, rec)

	for i := 0; i < 7; i++ {
		n.Send(0, 1, []byte{byte(i)})
		n.Send(0, 2, []byte{byte(i)})
	}
	fired := 0
	for i := 0; i < 3; i++ {
		n.AfterFunc(time.Duration(i+1)*time.Millisecond, func() { fired++ })
	}
	n.RunUntilIdle(0)

	if fired != 3 {
		t.Fatalf("fired %d timers, want 3", fired)
	}
	total := n.EventsProcessed
	if total != 14+3 {
		t.Fatalf("EventsProcessed = %d, want 17", total)
	}
	if n.TimerFires != 3 {
		t.Fatalf("TimerFires = %d, want 3", n.TimerFires)
	}
	deliver, _ := reg.Value("sim_events_class_total", obs.Label{Key: "class", Value: "deliver"})
	timer, _ := reg.Value("sim_events_class_total", obs.Label{Key: "class", Value: "timer"})
	if uint64(deliver) != 14 || uint64(timer) != 3 {
		t.Fatalf("class counts deliver=%v timer=%v, want 14/3", deliver, timer)
	}
	if uint64(deliver+timer) != total {
		t.Fatalf("class counts sum %v != events %d", deliver+timer, total)
	}
	if v, _ := reg.Value("sim_events_total"); uint64(v) != total {
		t.Fatalf("sim_events_total = %v, want %d", v, total)
	}
}

// TestBreakdownDoesNotPerturbRun pins the determinism rule at the emunet
// layer: the same workload with instruments attached delivers the same
// frames at the same virtual instants.
func TestBreakdownDoesNotPerturbRun(t *testing.T) {
	run := func(withIns bool) []recorded {
		n := New(4, constLatency(3*time.Millisecond), Config{Loss: 0.2, Seed: 42})
		if withIns {
			n.SetInstruments(breakdownInstruments(obs.NewRegistry()))
		}
		rec := &recorder{net: n}
		for i := 1; i < 4; i++ {
			n.Register(i, rec)
		}
		for i := 0; i < 50; i++ {
			n.Send(0, 1+i%3, []byte{byte(i)})
		}
		n.RunUntilIdle(0)
		return rec.frames
	}
	plain, observed := run(false), run(true)
	if len(plain) != len(observed) {
		t.Fatalf("frame counts differ: %d vs %d", len(plain), len(observed))
	}
	for i := range plain {
		if plain[i].at != observed[i].at || plain[i].frame[0] != observed[i].frame[0] {
			t.Fatalf("frame %d differs: %+v vs %+v", i, plain[i], observed[i])
		}
	}
}

// TestNetworkFootprint pins the emulator's byte report on a hand-built
// queue: pending deliver frames charge their payload bytes plus every
// retained scheduler slot, and draining the queue returns the payload
// charge to zero while the slots stay retained (arena semantics).
func TestNetworkFootprint(t *testing.T) {
	t.Run("wheel", func(t *testing.T) {
		n := New(2, constLatency(time.Millisecond), Config{})
		rec := &recorder{net: n}
		n.Register(1, rec)

		n.Send(0, 1, make([]byte, 30))
		n.Send(0, 1, make([]byte, 70))
		fp := n.Footprint()
		if fp.Subsystem != "emunet" {
			t.Fatalf("subsystem = %q", fp.Subsystem)
		}
		if fp.Items != 2 {
			t.Fatalf("items = %d, want 2 queued events", fp.Items)
		}
		want := n.wheel.slotCap()*eventSlotBytes + 100 +
			int64(len(n.handlers))*(16+1+8)
		if fp.Bytes != want {
			t.Fatalf("bytes = %d, want %d", fp.Bytes, want)
		}

		n.RunUntilIdle(0)
		fp = n.Footprint()
		if fp.Items != 0 {
			t.Fatalf("after drain: items=%d, want 0", fp.Items)
		}
		// Payload charge gone; only retained slots and fixed slices remain.
		want = n.wheel.slotCap()*eventSlotBytes + int64(len(n.handlers))*(16+1+8)
		if fp.Bytes != want {
			t.Fatalf("after drain: bytes = %d, want %d", fp.Bytes, want)
		}
	})
}
