package emunet

import (
	"testing"
	"testing/quick"
	"time"

	"emcast/internal/faults"
)

func constLatency(d time.Duration) LatencyFunc {
	return func(from, to int) time.Duration { return d }
}

// drain executes events until the queue is empty.
func drain(n *Network) {
	for n.Step() {
	}
}

// recorder keeps a copy of every frame delivered to it: the network
// recycles the frame once HandleFrame returns.
type recorder struct {
	frames []recorded
	net    *Network
}

type recorded struct {
	from  int
	at    time.Duration
	frame []byte
}

func (r *recorder) HandleFrame(from int, frame []byte) {
	r.frames = append(r.frames, recorded{from: from, at: r.net.Now(), frame: append([]byte(nil), frame...)})
}

func TestDeliveryLatency(t *testing.T) {
	n := New(2, constLatency(25*time.Millisecond), Config{})
	rec := &recorder{net: n}
	n.Register(1, rec)
	n.Send(0, 1, []byte("x"))
	drain(n)
	if len(rec.frames) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(rec.frames))
	}
	if rec.frames[0].at != 25*time.Millisecond {
		t.Fatalf("delivered at %v, want 25ms", rec.frames[0].at)
	}
	if rec.frames[0].from != 0 {
		t.Fatalf("from = %d, want 0", rec.frames[0].from)
	}
}

func TestFrameIsCopied(t *testing.T) {
	n := New(2, constLatency(time.Millisecond), Config{})
	rec := &recorder{net: n}
	n.Register(1, rec)
	buf := []byte("abc")
	n.Send(0, 1, buf)
	buf[0] = 'Z' // caller reuses the buffer before delivery
	drain(n)
	if string(rec.frames[0].frame) != "abc" {
		t.Fatalf("frame = %q, want %q (must be copied on Send)", rec.frames[0].frame, "abc")
	}
}

func TestSameLinkFIFO(t *testing.T) {
	n := New(2, constLatency(10*time.Millisecond), Config{})
	rec := &recorder{net: n}
	n.Register(1, rec)
	for i := byte(0); i < 10; i++ {
		n.Send(0, 1, []byte{i})
	}
	drain(n)
	for i := byte(0); i < 10; i++ {
		if rec.frames[i].frame[0] != i {
			t.Fatalf("frame %d out of order", i)
		}
	}
}

func TestLossRate(t *testing.T) {
	n := New(2, constLatency(time.Millisecond), Config{Loss: 0.5, Seed: 3})
	rec := &recorder{net: n}
	n.Register(1, rec)
	const total = 10000
	for i := 0; i < total; i++ {
		n.Send(0, 1, []byte("x"))
	}
	drain(n)
	got := len(rec.frames)
	if got < total*40/100 || got > total*60/100 {
		t.Fatalf("delivered %d of %d with 50%% loss", got, total)
	}
	if n.FramesLost != uint64(total-got) {
		t.Fatalf("FramesLost = %d, want %d", n.FramesLost, total-got)
	}
}

func TestSilence(t *testing.T) {
	n := New(3, constLatency(time.Millisecond), Config{})
	rec1 := &recorder{net: n}
	rec2 := &recorder{net: n}
	n.Register(1, rec1)
	n.Register(2, rec2)

	n.Silence(1)
	n.Send(0, 1, []byte("to-silenced"))   // inbound: dropped
	n.Send(1, 2, []byte("from-silenced")) // outbound: dropped
	n.Send(0, 2, []byte("unaffected"))
	drain(n)
	if len(rec1.frames) != 0 {
		t.Fatal("silenced node received a frame")
	}
	if len(rec2.frames) != 1 || string(rec2.frames[0].frame) != "unaffected" {
		t.Fatalf("live node frames = %v", rec2.frames)
	}
	if n.FramesLost != 2 {
		t.Fatalf("FramesLost = %d, want 2", n.FramesLost)
	}
}

func TestSilenceDropsInFlight(t *testing.T) {
	// A frame already in flight to a node silenced before delivery is
	// dropped (the firewall analogy: packets are filtered at arrival).
	n := New(2, constLatency(10*time.Millisecond), Config{})
	rec := &recorder{net: n}
	n.Register(1, rec)
	n.Send(0, 1, []byte("x"))
	n.Silence(1)
	drain(n)
	if len(rec.frames) != 0 {
		t.Fatal("in-flight frame delivered to silenced node")
	}
}

func TestTimers(t *testing.T) {
	n := New(1, constLatency(0), Config{})
	var order []int
	n.AfterFunc(30*time.Millisecond, func() { order = append(order, 3) })
	n.AfterFunc(10*time.Millisecond, func() { order = append(order, 1) })
	n.AfterFunc(20*time.Millisecond, func() { order = append(order, 2) })
	drain(n)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("timer order = %v", order)
	}
	if n.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", n.Now())
	}
}

func TestTimerStop(t *testing.T) {
	n := New(1, constLatency(0), Config{})
	fired := false
	timer := n.AfterFunc(time.Millisecond, func() { fired = true })
	if !timer.Stop() {
		t.Fatal("Stop on pending timer returned false")
	}
	if timer.Stop() {
		t.Fatal("second Stop returned true")
	}
	drain(n)
	if fired {
		t.Fatal("stopped timer fired")
	}

	t2 := n.AfterFunc(0, func() {})
	drain(n)
	if t2.Stop() {
		t.Fatal("Stop after firing returned true")
	}
}

// sinkFunc adapts a function to peer.TimerSink.
type sinkFunc func(key uint64) bool

func (f sinkFunc) FireTimer(key uint64) bool { return f(key) }

// TestArmFiresSinkWithKey: a data timer calls its sink with the key it
// was armed with, at its deadline, and Arm hands back no handle.
func TestArmFiresSinkWithKey(t *testing.T) {
	n := New(1, constLatency(0), Config{})
	var got []uint64
	sink := sinkFunc(func(key uint64) bool {
		if n.Now() != time.Duration(key)*time.Millisecond {
			t.Errorf("key %d fired at %v", key, n.Now())
		}
		got = append(got, key)
		return true
	})
	for _, k := range []uint64{7, 3, 5} {
		if h := n.Arm(time.Duration(k)*time.Millisecond, sink, k); h != nil {
			t.Fatalf("Arm returned handle %v, want nil", h)
		}
	}
	drain(n)
	if len(got) != 3 || got[0] != 3 || got[1] != 5 || got[2] != 7 {
		t.Fatalf("sink saw keys %v, want [3 5 7]", got)
	}
	if n.TimerFires != 3 || n.EventsProcessed != 3 {
		t.Fatalf("TimerFires=%d EventsProcessed=%d, want 3 and 3", n.TimerFires, n.EventsProcessed)
	}
}

// TestStaleAlarmSkipsLikeStoppedTimer: a data timer whose sink reports
// the key stale is accounted exactly as a stopped AfterFunc timer — the
// same EventsProcessed and TimerFires, the same Step result, and the same
// Run stopping point: Run(2ms) pops the cancelled 1 ms timer and stops at
// its deadline, leaving the 5 ms timer for the Step after it. The bench
// fingerprint counts events, so a stale alarm must not differ from a
// stopped timer in any of these.
func TestStaleAlarmSkipsLikeStoppedTimer(t *testing.T) {
	type outcome struct {
		stepped        bool
		steps          int
		now            time.Duration
		events, fires  uint64
		lateFired      bool
		stepAfterDrain bool
	}
	stopped := func(n *Network) {
		n.AfterFunc(time.Millisecond, func() { t.Error("stopped timer ran") }).Stop()
	}
	stale := func(n *Network) {
		const gen = 1
		n.Arm(time.Millisecond, sinkFunc(func(key uint64) bool { return key == gen }), gen-1)
	}
	play := func(cancel func(*Network)) outcome {
		var o outcome
		// Step over a cancelled timer alone: consumed, counted, not a step.
		n := New(1, constLatency(0), Config{})
		cancel(n)
		o.stepped = n.Step()
		// Run with a cancelled timer before the deadline and a live one
		// after it.
		n = New(1, constLatency(0), Config{})
		cancel(n)
		n.AfterFunc(5*time.Millisecond, func() { o.lateFired = true })
		o.steps = n.Run(2 * time.Millisecond)
		o.now = n.Now()
		o.events, o.fires = n.EventsProcessed, n.TimerFires
		o.stepAfterDrain = n.Step()
		return o
	}
	a, b := play(stopped), play(stale)
	if a != b {
		t.Fatalf("stopped timer %+v, stale alarm %+v: want identical accounting", a, b)
	}
	want := outcome{stepped: false, steps: 0, now: 2 * time.Millisecond, events: 1, fires: 1, lateFired: true, stepAfterDrain: true}
	if a != want {
		t.Fatalf("cancelled timer accounting = %+v, want %+v", a, want)
	}
}

// TestRunStopsAtDeadline: with a stale timer 1 ms before the deadline and
// a live one 1 ms after it, Run consumes the stale one, executes nothing
// and leaves the clock at the deadline, so a run that continues from there
// schedules from the deadline, not from the event past it.
func TestRunStopsAtDeadline(t *testing.T) {
	const deadline = 10 * time.Millisecond
	n := New(1, constLatency(0), Config{})
	n.Arm(deadline-time.Millisecond, sinkFunc(func(uint64) bool { return false }), 0)
	late := false
	n.AfterFunc(deadline+time.Millisecond, func() { late = true })
	if steps := n.Run(deadline); steps != 0 || late {
		t.Fatalf("Run(%v) executed %d events (late timer ran: %v), want none", deadline, steps, late)
	}
	if n.Now() != deadline {
		t.Fatalf("clock after Run(%v) = %v, want the deadline", deadline, n.Now())
	}
	if n.EventsProcessed != 1 {
		t.Fatalf("EventsProcessed = %d, want 1 (the stale timer, consumed)", n.EventsProcessed)
	}
}

func TestNegativeDelayFiresImmediately(t *testing.T) {
	n := New(1, constLatency(0), Config{})
	fired := false
	n.AfterFunc(-5*time.Second, func() { fired = true })
	drain(n)
	if !fired || n.Now() != 0 {
		t.Fatalf("fired=%v now=%v", fired, n.Now())
	}
}

func TestRunDeadlineSemantics(t *testing.T) {
	n := New(1, constLatency(0), Config{})
	var fired []time.Duration
	for _, d := range []time.Duration{5, 10, 15, 20} {
		d := d * time.Millisecond
		n.AfterFunc(d, func() { fired = append(fired, d) })
	}
	n.Run(12 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d timers by 12ms, want 2", len(fired))
	}
	if n.Now() != 12*time.Millisecond {
		t.Fatalf("clock = %v, want deadline 12ms", n.Now())
	}
	n.Run(100 * time.Millisecond)
	if len(fired) != 4 {
		t.Fatalf("fired %d timers total, want 4", len(fired))
	}
}

func TestNestedScheduling(t *testing.T) {
	// Handlers scheduling more events must interleave correctly.
	n := New(2, constLatency(5*time.Millisecond), Config{})
	var hops []time.Duration
	n.Register(1, HandlerFunc(func(from int, frame []byte) {
		hops = append(hops, n.Now())
		if len(frame) < 3 {
			n.Send(1, 0, append(frame, 1))
		}
	}))
	n.Register(0, HandlerFunc(func(from int, frame []byte) {
		hops = append(hops, n.Now())
		n.Send(0, 1, append(frame, 0))
	}))
	n.Send(0, 1, []byte{0})
	drain(n)
	// Hop 1 arrives at node 1 (len 1), hop 2 back at node 0 (len 2),
	// hop 3 at node 1 (len 3, chain stops).
	want := []time.Duration{5, 10, 15}
	if len(hops) != len(want) {
		t.Fatalf("hops = %v", hops)
	}
	for i := range want {
		if hops[i] != want[i]*time.Millisecond {
			t.Fatalf("hop %d at %v, want %v", i, hops[i], want[i]*time.Millisecond)
		}
	}
}

// TestJitterBounds: per-frame jitter is a fault-plane link rule
// (delay_jitter); on the emulator it lands every frame in
// [latency, latency+jitter) and actually spreads them.
func TestJitterBounds(t *testing.T) {
	n := New(2, constLatency(10*time.Millisecond), Config{})
	rec := &recorder{net: n}
	n.Register(1, rec)
	inj := faults.New(9)
	if err := inj.Install(faults.LinkRule{DelayJitter: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	n.SetFaults(inj)
	for i := 0; i < 500; i++ {
		n.Send(0, 1, []byte("x"))
	}
	drain(n)
	if len(rec.frames) != 500 {
		t.Fatalf("delivered %d frames, want 500", len(rec.frames))
	}
	for _, f := range rec.frames {
		// All frames sent at t=0; delivery in [10ms, 15ms).
		if f.at < 10*time.Millisecond || f.at >= 15*time.Millisecond {
			t.Fatalf("delivery at %v outside jitter bounds", f.at)
		}
	}
	if first, last := rec.frames[0].at, rec.frames[len(rec.frames)-1].at; last-first < time.Millisecond {
		t.Fatalf("deliveries span [%v, %v]: jitter did not spread them", first, last)
	}
}

func TestUnregisteredDrop(t *testing.T) {
	n := New(2, constLatency(time.Millisecond), Config{})
	n.Send(0, 1, []byte("x"))
	drain(n)
	if n.FramesLost != 1 {
		t.Fatalf("FramesLost = %d, want 1", n.FramesLost)
	}
}

func TestCounters(t *testing.T) {
	n := New(2, constLatency(time.Millisecond), Config{})
	rec := &recorder{net: n}
	n.Register(1, rec)
	n.Send(0, 1, []byte("abcd"))
	n.Send(0, 1, []byte("ef"))
	drain(n)
	if n.FramesSent != 2 || n.FramesDelivered != 2 || n.BytesDelivered != 6 {
		t.Fatalf("counters: sent=%d delivered=%d bytes=%d",
			n.FramesSent, n.FramesDelivered, n.BytesDelivered)
	}
}

// TestQuickEventOrder property-checks that timers fire in non-decreasing
// time order regardless of insertion order.
func TestQuickEventOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		n := New(1, constLatency(0), Config{})
		var fired []time.Duration
		for _, d := range delays {
			n.AfterFunc(time.Duration(d)*time.Microsecond, func() {
				fired = append(fired, n.Now())
			})
		}
		drain(n)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyFactorScalesDelay(t *testing.T) {
	n := New(2, constLatency(10*time.Millisecond), Config{})
	rec := &recorder{net: n}
	n.Register(1, rec)
	n.SetLatencyFactor(3)
	n.Send(0, 1, []byte("x"))
	drain(n)
	if rec.frames[0].at != 30*time.Millisecond {
		t.Fatalf("delivered at %v, want 30ms under factor 3", rec.frames[0].at)
	}
	// Restoring the factor affects only future frames.
	n.SetLatencyFactor(1)
	n.Send(0, 1, []byte("y"))
	drain(n)
	if got := rec.frames[1].at - rec.frames[0].at; got != 10*time.Millisecond {
		t.Fatalf("second frame took %v, want 10ms after restore", got)
	}
	// Non-positive factors fall back to the base model: the base latency.
	for _, f := range []float64{0, -2} {
		n.SetLatencyFactor(f)
		sent := n.Now()
		n.Send(0, 1, []byte("z"))
		drain(n)
		if got := rec.frames[len(rec.frames)-1].at - sent; got != 10*time.Millisecond {
			t.Fatalf("factor %v: frame took %v, want the base 10ms", f, got)
		}
	}
}

func TestExtraLatencyShiftsDelay(t *testing.T) {
	n := New(2, constLatency(10*time.Millisecond), Config{})
	rec := &recorder{net: n}
	n.Register(1, rec)
	n.SetExtraLatency(15 * time.Millisecond)
	n.Send(0, 1, []byte("x"))
	drain(n)
	if rec.frames[0].at != 25*time.Millisecond {
		t.Fatalf("delivered at %v, want 25ms with 15ms shift", rec.frames[0].at)
	}
	// A negative shift is treated as none: the base latency.
	n.SetExtraLatency(-time.Second)
	n.Send(0, 1, []byte("y"))
	drain(n)
	if got := rec.frames[1].at - rec.frames[0].at; got != 10*time.Millisecond {
		t.Fatalf("frame took %v after a negative shift, want the base 10ms", got)
	}
}

func TestSetLossDropsFrames(t *testing.T) {
	n := New(2, constLatency(time.Millisecond), Config{Seed: 42})
	rec := &recorder{net: n}
	n.Register(1, rec)
	n.SetLoss(1)
	for i := 0; i < 10; i++ {
		n.Send(0, 1, []byte("x"))
	}
	drain(n)
	if len(rec.frames) != 0 {
		t.Fatalf("delivered %d frames under loss 1, want 0", len(rec.frames))
	}
	if n.FramesLost != 10 {
		t.Fatalf("FramesLost = %d, want 10", n.FramesLost)
	}
	n.SetLoss(0)
	n.Send(0, 1, []byte("y"))
	drain(n)
	if len(rec.frames) != 1 {
		t.Fatalf("delivered %d frames after loss cleared, want 1", len(rec.frames))
	}
	// Out-of-range probabilities clamp: above 1 drops everything, below 0
	// drops nothing.
	n.SetLoss(2)
	for i := 0; i < 10; i++ {
		n.Send(0, 1, []byte("z"))
	}
	drain(n)
	if len(rec.frames) != 1 || n.FramesLost != 20 {
		t.Fatalf("loss 2: delivered %d, lost %d; want 1 delivered, 20 lost", len(rec.frames), n.FramesLost)
	}
	n.SetLoss(-1)
	for i := 0; i < 10; i++ {
		n.Send(0, 1, []byte("w"))
	}
	drain(n)
	if len(rec.frames) != 11 {
		t.Fatalf("loss -1: delivered %d frames in all, want 11", len(rec.frames))
	}
}

func TestPartitionBlocksCrossGroupTraffic(t *testing.T) {
	n := New(4, constLatency(time.Millisecond), Config{})
	recs := make([]*recorder, 4)
	for i := range recs {
		recs[i] = &recorder{net: n}
		n.Register(i, recs[i])
	}
	// {0,1} vs implicit rest {2,3}.
	n.Partition([][]int{{0, 1}})
	n.Send(0, 1, []byte("same side"))
	n.Send(2, 3, []byte("other side"))
	n.Send(0, 2, []byte("cross"))
	n.Send(3, 1, []byte("cross"))
	drain(n)
	if len(recs[1].frames) != 1 || len(recs[3].frames) != 1 {
		t.Fatalf("intra-group frames = %d,%d, want 1,1", len(recs[1].frames), len(recs[3].frames))
	}
	if len(recs[2].frames) != 0 {
		t.Fatal("cross-partition frame delivered")
	}
	if n.FramesLost != 2 {
		t.Fatalf("FramesLost = %d, want 2", n.FramesLost)
	}
	n.Heal()
	n.Send(0, 2, []byte("healed"))
	drain(n)
	if len(recs[2].frames) != 1 {
		t.Fatal("frame not delivered after Heal")
	}
}

func TestPartitionCutsInFlightFrames(t *testing.T) {
	n := New(2, constLatency(10*time.Millisecond), Config{})
	rec := &recorder{net: n}
	n.Register(1, rec)
	n.Send(0, 1, []byte("in flight"))
	// Partition starts while the frame is on the wire: it must be cut.
	n.AfterFunc(time.Millisecond, func() { n.Partition([][]int{{0}}) })
	drain(n)
	if len(rec.frames) != 0 {
		t.Fatal("in-flight frame survived a partition cut")
	}
	if n.FramesLost != 1 {
		t.Fatalf("FramesLost = %d, want 1", n.FramesLost)
	}
}
