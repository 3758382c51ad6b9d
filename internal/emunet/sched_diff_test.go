package emunet

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// This file is the differential harness that locks the timer wheel to the
// historical binary heap: both schedulers are driven through identical
// randomized push/pop programs and must agree on every single pop —
// (at, seq, kind, from, to) — and on every peek at the head's instant,
// which is how Run finds its deadline. The program generator is seeded, so every
// failure is a one-line reproduction, and FuzzSchedulerOrder feeds the
// same harness from the fuzzer.

// heapSched is the oracle: the emulator's original scheduler,
// container/heap over a slice ordered by (at, seq), with the wheel's
// pop and len.
type heapSched struct {
	events eventHeap
}

func (h *heapSched) push(ev *event) {
	heap.Push(&h.events, *ev)
}

func (h *heapSched) pop() (event, bool) {
	if len(h.events) == 0 {
		return event{}, false
	}
	return heap.Pop(&h.events).(event), true
}

func (h *heapSched) len() int { return len(h.events) }

// stubSink marks an event as a timer fire; the schedulers never call it.
type stubSink struct{}

func (stubSink) FireTimer(uint64) bool { return true }

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = event{}
	*h = old[:n-1]
	return ev
}

// randDelta draws a push offset whose distribution exercises every wheel
// tier: same-tick inserts (insertCur), L0/L1/L2 buckets across cascade
// boundaries, and far-future events that spill to the overflow heap.
func randDelta(rng *rand.Rand) time.Duration {
	switch rng.Intn(20) {
	case 0, 1, 2, 3: // same instant / same tick → insertCur path
		return time.Duration(rng.Int63n(int64(1) << tickShift))
	case 4, 5, 6, 7, 8, 9, 10, 11: // L0: within 256 ticks
		return time.Duration(rng.Int63n(l0Horizon << tickShift))
	case 12, 13, 14, 15, 16: // L1: within 65536 ticks
		return time.Duration(rng.Int63n(l1Horizon << tickShift))
	case 17, 18: // L2: within 2^24 ticks (~137 virtual seconds)
		return time.Duration(rng.Int63n(l2Horizon << tickShift))
	default: // beyond L2 → overflow heap
		return time.Duration(l2Horizon<<tickShift + rng.Int63n(l2Horizon<<tickShift))
	}
}

// runSchedDiff drives a wheel (via the production pushSlot fast path) and
// a heap through one identical seeded program and fails on the first
// divergence. Pushes respect the emulator invariant at >= now (now being
// the virtual time of the last popped event); pops and head peeks are
// interleaved at random.
func runSchedDiff(t testing.TB, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	w := newTimerWheel()
	h := &heapSched{}
	var seq uint64
	var now time.Duration
	live := 0

	push := func() {
		seq++
		at := now + randDelta(rng)
		ev := event{at: at, seq: seq, from: rng.Intn(8), to: rng.Intn(8)}
		if rng.Intn(8) == 0 {
			ev.sink = stubSink{}
		}
		s := w.pushSlot(at, seq)
		s.sink = ev.sink
		s.from = ev.from
		s.to = ev.to
		h.push(&ev)
		live++
	}
	check := func(op string, we event, wok bool, he event, hok bool) {
		if wok != hok {
			t.Fatalf("seed=%d %s: wheel ok=%v heap ok=%v (live=%d now=%v)", seed, op, wok, hok, live, now)
		}
		if !wok {
			return
		}
		if we.at != he.at || we.seq != he.seq || we.sink != he.sink ||
			we.from != he.from || we.to != he.to {
			t.Fatalf("seed=%d %s: wheel popped (at=%v seq=%d timer=%v %d→%d), heap popped (at=%v seq=%d timer=%v %d→%d)",
				seed, op, we.at, we.seq, we.sink != nil, we.from, we.to,
				he.at, he.seq, he.sink != nil, he.from, he.to)
		}
		if we.at < now {
			t.Fatalf("seed=%d %s: popped at=%v before now=%v — time ran backwards", seed, op, we.at, now)
		}
		now = we.at
		live--
	}

	for i := 0; i < steps; i++ {
		if w.len() != h.len() || w.len() != live {
			t.Fatalf("seed=%d step %d: wheel len=%d heap len=%d live=%d", seed, i, w.len(), h.len(), live)
		}
		r := rng.Intn(100)
		switch {
		case live == 0 || r < 50:
			push()
		case r < 92:
			we, wok := w.pop()
			he, hok := h.pop()
			check("pop", we, wok, he, hok)
		default:
			// A peek reports the head's instant and disturbs neither
			// queue (the length check above sees to the latter).
			if at, ok := w.peekAt(); !ok || at != h.events[0].at {
				t.Fatalf("seed=%d peekAt = %v, %v; heap head at %v", seed, at, ok, h.events[0].at)
			}
		}
	}
	// Drain both queues completely: the tail is where cascades and the
	// overflow refill happen, so it must match too.
	for {
		we, wok := w.pop()
		he, hok := h.pop()
		check("drain", we, wok, he, hok)
		if !wok {
			break
		}
	}
	if w.len() != 0 || h.len() != 0 {
		t.Fatalf("seed=%d drained but len: wheel=%d heap=%d", seed, w.len(), h.len())
	}
}

// TestSchedulerDifferential runs the differential program across a spread
// of seeds, long enough to force cascades at every level and overflow
// refills (a run's virtual span is minutes at the randDelta mix).
func TestSchedulerDifferential(t *testing.T) {
	steps := 20000
	seeds := 12
	if testing.Short() {
		steps, seeds = 4000, 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		runSchedDiff(t, seed, steps)
	}
}

// FuzzSchedulerOrder is the fuzz entry over the same harness: the fuzzer
// mutates (seed, steps) and any ordering divergence between the wheel and
// the heap oracle is a crash. Run nightly in CI; the seed corpus under
// testdata/fuzz pins the interesting regions (tiny programs, boundary
// cascades, overflow-heavy mixes).
func FuzzSchedulerOrder(f *testing.F) {
	f.Add(int64(1), uint16(100))
	f.Add(int64(42), uint16(2000))
	f.Add(int64(7777), uint16(5000))
	f.Add(int64(-123456789), uint16(300))
	f.Add(int64(0), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, steps uint16) {
		runSchedDiff(t, seed, int(steps))
	})
}

// TestSchedulerTieBreak pins the determinism contract at its sharpest
// point: events pushed at the SAME virtual instant must pop in push
// (seq) order, for both schedulers, regardless of the push pattern
// around them.
func TestSchedulerTieBreak(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newTimerWheel()
		h := &heapSched{}
		var seq uint64
		// A handful of distinct instants, many events each, pushed in
		// shuffled instant order so buckets interleave.
		instants := make([]time.Duration, 5)
		for i := range instants {
			instants[i] = time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
		}
		for i := 0; i < 400; i++ {
			at := instants[rng.Intn(len(instants))]
			seq++
			ev := event{at: at, seq: seq}
			w.pushSlot(at, seq)
			h.push(&ev)
		}
		var lastAt time.Duration = -1
		var lastSeq uint64
		for {
			we, wok := w.pop()
			he, hok := h.pop()
			if wok != hok {
				t.Fatalf("seed=%d: wheel ok=%v heap ok=%v", seed, wok, hok)
			}
			if !wok {
				break
			}
			if we.at != he.at || we.seq != he.seq {
				t.Fatalf("seed=%d: wheel (at=%v seq=%d) heap (at=%v seq=%d)", seed, we.at, we.seq, he.at, he.seq)
			}
			if we.at < lastAt || (we.at == lastAt && we.seq <= lastSeq) {
				t.Fatalf("seed=%d: (at=%v seq=%d) after (at=%v seq=%d) — (time, seq) order violated",
					seed, we.at, we.seq, lastAt, lastSeq)
			}
			lastAt, lastSeq = we.at, we.seq
		}
	}
}

// TestPropertyPerLinkFIFO: with a per-link constant latency model, frames
// on the same directed link must be delivered in send order no matter how
// sends interleave across links. Randomized over seeds and send patterns.
func TestPropertyPerLinkFIFO(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const nodes = 6
		type linkKey struct{ from, to int }
		// Stable random per-link latency (same link → same delay), the
		// precondition for per-link FIFO.
		lat := make(map[linkKey]time.Duration)
		latency := func(from, to int) time.Duration {
			k := linkKey{from, to}
			d, ok := lat[k]
			if !ok {
				d = time.Duration(1+rng.Intn(20)) * time.Millisecond
				lat[k] = d
			}
			return d
		}
		n := New(nodes, latency, Config{})
		type delivery struct{ from, payload int }
		got := make([][]delivery, nodes)
		for i := 0; i < nodes; i++ {
			i := i
			n.Register(i, HandlerFunc(func(from int, frame []byte) {
				got[i] = append(got[i], delivery{from, int(frame[0])<<8 | int(frame[1])})
			}))
		}
		sent := make(map[linkKey][]int)
		for p := 0; p < 2000; p++ {
			from := rng.Intn(nodes)
			to := rng.Intn(nodes)
			if to == from {
				to = (to + 1) % nodes
			}
			n.Send(from, to, []byte{byte(p >> 8), byte(p)})
			sent[linkKey{from, to}] = append(sent[linkKey{from, to}], p)
		}
		drain(n)
		// Reconstruct per-link delivery order and compare with send order.
		gotPerLink := make(map[linkKey][]int)
		for to, ds := range got {
			for _, d := range ds {
				k := linkKey{d.from, to}
				gotPerLink[k] = append(gotPerLink[k], d.payload)
			}
		}
		for k, want := range sent {
			gd := gotPerLink[k]
			if len(gd) != len(want) {
				t.Fatalf("seed=%d link %v: delivered %d frames, sent %d", seed, k, len(gd), len(want))
			}
			for i := range want {
				if gd[i] != want[i] {
					t.Fatalf("seed=%d link %v: position %d delivered payload %d, want %d (FIFO violated)",
						seed, k, i, gd[i], want[i])
				}
			}
		}
	}
}

// TestPropertyEventAccounting: in a run with no silencing, partitions or
// stopped timers, every processed event is either a frame delivery or a
// timer fire — FramesDelivered + TimerFires == EventsProcessed — and the
// per-class instruments agree.
func TestPropertyEventAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := New(4, constLatency(3*time.Millisecond), Config{})
	for i := 0; i < 4; i++ {
		n.Register(i, HandlerFunc(func(int, []byte) {}))
	}
	timers := 0
	for i := 0; i < 500; i++ {
		if rng.Intn(4) == 0 {
			n.AfterFunc(time.Duration(rng.Intn(50))*time.Millisecond, func() {})
			timers++
		} else {
			n.Send(rng.Intn(4), rng.Intn(4), []byte("x"))
		}
	}
	drain(n)
	if n.EventsProcessed != n.FramesDelivered+n.TimerFires {
		t.Fatalf("EventsProcessed=%d, FramesDelivered=%d + TimerFires=%d",
			n.EventsProcessed, n.FramesDelivered, n.TimerFires)
	}
	if n.TimerFires != uint64(timers) {
		t.Fatalf("TimerFires=%d, scheduled %d", n.TimerFires, timers)
	}
}
