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
	drain(n)

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
	values := obs.Scalars(reg.Snapshot())
	deliver := values[`sim_events_class_total{class="deliver"}`]
	timer := values[`sim_events_class_total{class="timer"}`]
	if uint64(deliver) != 14 || uint64(timer) != 3 {
		t.Fatalf("class counts deliver=%v timer=%v, want 14/3", deliver, timer)
	}
	if uint64(deliver+timer) != total {
		t.Fatalf("class counts sum %v != events %d", deliver+timer, total)
	}
	if v := values["sim_events_total"]; uint64(v) != total {
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
		drain(n)
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
// queue: every retained scheduler slot, every chunk the frame arena has
// carved, and the bytes of in-flight oversize frames, which bypass the
// arena. Draining the queue returns the oversize charge to zero while the
// slots and the arena's chunks stay retained (arena semantics).
func TestNetworkFootprint(t *testing.T) {
	t.Run("wheel", func(t *testing.T) {
		n := New(2, constLatency(time.Millisecond), Config{})
		rec := &recorder{net: n}
		n.Register(1, rec)

		// 30 B and 70 B fall in the 32 B and 128 B classes: one chunk
		// each. The oversize frame is charged by its length.
		const oversize = 1<<frameMaxShift + 1
		n.Send(0, 1, make([]byte, 30))
		n.Send(0, 1, make([]byte, 70))
		n.Send(0, 1, make([]byte, oversize))
		fp := n.Footprint()
		if fp.Subsystem != "emunet" {
			t.Fatalf("subsystem = %q", fp.Subsystem)
		}
		if fp.Items != 3 {
			t.Fatalf("items = %d, want 3 queued events", fp.Items)
		}
		retained := n.wheel.slotCap()*eventSlotBytes + 2*frameChunkBytes +
			int64(len(n.handlers))*(16+1+8)
		if want := retained + oversize; fp.Bytes != want {
			t.Fatalf("bytes = %d, want %d", fp.Bytes, want)
		}

		drain(n)
		fp = n.Footprint()
		if fp.Items != 0 {
			t.Fatalf("after drain: items=%d, want 0", fp.Items)
		}
		// Oversize charge gone; the slots, the arena and the fixed slices
		// remain.
		if fp.Bytes != retained {
			t.Fatalf("after drain: bytes = %d, want %d", fp.Bytes, retained)
		}
	})
}
