package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"emcast/internal/ids"
	"emcast/internal/monitor"
	"emcast/internal/msg"
	"emcast/internal/peer"
	"emcast/internal/peertest"
	"emcast/internal/ranking"
	"emcast/internal/strategy"
)

// timedLog is node 1's transport: it records every frame with the
// virtual time it left at.
type timedLog struct {
	clock *peertest.Sim
	log   []string
}

func (l *timedLog) Send(to peer.ID, frame []byte) {
	l.log = append(l.log, fmt.Sprintf("%v →%d %x", l.clock.Now(), to, frame))
}

func (l *timedLog) Local() peer.ID { return 1 }

// timerScript drives one node whose neighbours 2, 3 and 4 never answer
// through every timer it arms: lazy retries rotating through three
// sources, a payload that arrives mid-rotation (its armed retry must do
// nothing), a second request that rotates past its sources, and a
// Stop/Start of the shuffle, ping and rank tasks (the tasks armed before
// Stop must do nothing). It returns the node's timed frame log.
func timerScript(timers func(*peertest.Sim) peer.Timers) []string {
	sim := peertest.NewSim()
	out := &timedLog{clock: sim}
	cfg := DefaultConfig()
	cfg.ShufflePeriod = 300 * time.Millisecond
	cfg.Gossip.Fanout = 3
	n := NewNode(cfg, &peer.Env{Transport: out, Clock: sim, Timers: timers(sim)}, Options{
		Strategy: &strategy.Flat{P: 0},
		EWMA:     monitor.NewEWMA(0.125),
		Ranking:  ranking.NewTable(ranking.Config{Fraction: 0.5}, 1),
	})
	n.SeedView([]peer.ID{2, 3, 4})
	n.Start()
	x, y := ids.ID{1}, ids.ID{2}
	for _, src := range []peer.ID{2, 3, 4} {
		n.HandleFrame(src, (&msg.IHave{ID: x}).Encode(nil))
	}
	sim.Advance(900 * time.Millisecond) // IWANTs for x to 2, 3 and 4
	n.HandleFrame(3, (&msg.Msg{ID: x, Round: 1, Payload: []byte("x")}).Encode(nil))
	n.HandleFrame(2, (&msg.IHave{ID: y}).Encode(nil))
	sim.Advance(100 * time.Millisecond)
	n.Stop()
	sim.Advance(time.Second)
	n.HandleFrame(4, (&msg.IHave{ID: y}).Encode(nil))
	n.Start()
	sim.Advance(2 * time.Second)
	return out.log
}

// lostRace is a host whose Stop always loses the race against the fire:
// it reports success, and the timer fires anyway — what a runtime timer
// does on TCP when its callback is already waiting for the peer's lock.
// It counts the fires the node's sinks find stale.
type lostRace struct {
	sim   *peertest.Sim
	stale *int
}

type lostStop struct{}

func (lostStop) Stop() bool { return true }

func (h lostRace) AfterFunc(d time.Duration, fn func()) peer.Timer {
	h.sim.AfterFunc(d, fn)
	return lostStop{}
}

func (h lostRace) Arm(d time.Duration, sink peer.TimerSink, key uint64) peer.Timer {
	h.sim.AfterFunc(d, func() {
		if !sink.FireTimer(key) {
			*h.stale++
		}
	})
	return lostStop{}
}

// TestLostStopRaceIsHarmless: with every Stop losing its race, the node
// sends exactly the frames, at exactly the times, it sends when Stop
// cancels. The generation in the timer keys is what makes a late fire
// harmless — the guarantee the TCP peer relies on.
func TestLostStopRaceIsHarmless(t *testing.T) {
	native := timerScript(func(s *peertest.Sim) peer.Timers { return s })
	stale := 0
	raced := timerScript(func(s *peertest.Sim) peer.Timers { return lostRace{s, &stale} })
	if len(native) < 10 {
		t.Fatalf("script sent %d frames, want the retries and periodic tasks", len(native))
	}
	if stale < 4 {
		t.Fatalf("%d stale fires, want the cleared retry and the stopped shuffle, ping and rank tasks", stale)
	}
	if !slices.Equal(native, raced) {
		t.Fatalf("frames differ when Stop loses the race:\nnative %q\nraced  %q", native, raced)
	}
}

// callbacksOnly hides a host's Arm, leaving AfterFunc: the node's timers
// then go through Env.Arm's closure fallback, as on a host that only runs
// callbacks (the benchmark's traced stacks are such hosts).
type callbacksOnly struct{ peer.Timers }

// TestCallbackHostSendsSameFrames: the closure fallback and the native
// data path send the same frames at the same times.
func TestCallbackHostSendsSameFrames(t *testing.T) {
	native := timerScript(func(s *peertest.Sim) peer.Timers { return s })
	wrapped := timerScript(func(s *peertest.Sim) peer.Timers { return callbacksOnly{s} })
	if _, ok := peer.Timers(callbacksOnly{}).(peer.Arming); ok {
		t.Fatal("callbacksOnly implements Arming")
	}
	if !slices.Equal(native, wrapped) {
		t.Fatalf("frames differ through the callback fallback:\nnative  %q\nwrapped %q", native, wrapped)
	}
}
