package scenario

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"emcast/internal/faults"
	"emcast/internal/peer"
)

// action is one Substrate call the fake recorded.
type action struct {
	at   time.Duration
	kind string // multicast, join, leave, crash, partition, heal, stall, mark, latency-factor, extra-latency, loss
	node int
	arg  interface{} // contact, groups, duration, window or knob value
}

// fakeSub is a recording Substrate with an instant clock and no protocol
// under it: the Player's decisions are all there is to observe.
type fakeSub struct {
	now     time.Duration
	up      map[int]bool
	inj     *faults.Injector
	pending []struct {
		at time.Duration
		fn func()
	}
	log   []action
	rules []int // installed injector rules at each Boundary
}

func newFakeSub(spec *Spec) *fakeSub {
	f := &fakeSub{up: make(map[int]bool), inj: spec.Injector()}
	for i := 0; i < spec.Nodes; i++ {
		f.up[i] = true
	}
	return f
}

func (f *fakeSub) record(kind string, node int, arg interface{}) {
	f.log = append(f.log, action{f.now, kind, node, arg})
}

func (f *fakeSub) Now() time.Duration                  { return f.now }
func (f *fakeSub) Scale(d time.Duration) time.Duration { return d }
func (f *fakeSub) Schedule(at time.Duration, fn func()) {
	f.pending = append(f.pending, struct {
		at time.Duration
		fn func()
	}{at, fn})
}
func (f *fakeSub) RunFor(d time.Duration) {
	start, evs := f.now, f.pending
	f.pending = nil
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	for _, ev := range evs {
		f.now = start + ev.at
		ev.fn()
	}
	f.now = start + d
}
func (f *fakeSub) LiveAll() []int {
	var live []int
	for n := range f.up {
		live = append(live, n)
	}
	sort.Ints(live)
	return live
}
func (f *fakeSub) Failed(node int) bool               { return !f.up[node] }
func (f *fakeSub) Multicast(node int, payload []byte) { f.record("multicast", node, len(payload)) }
func (f *fakeSub) Join(node, contact int) {
	f.up[node] = true
	f.record("join", node, contact)
}
func (f *fakeSub) Kill(node int, leave bool) {
	delete(f.up, node)
	f.record(map[bool]string{true: "leave", false: "crash"}[leave], node, nil)
}
func (f *fakeSub) Partition(groups [][]int)        { f.record("partition", -1, groups) }
func (f *fakeSub) Heal()                           { f.record("heal", -1, nil) }
func (f *fakeSub) Stall(node int, d time.Duration) { f.record("stall", node, d) }
func (f *fakeSub) Faults() *faults.Injector        { return f.inj }
func (f *fakeSub) MarkRecovery(from, to time.Duration) {
	f.record("mark", -1, [2]time.Duration{from, to})
}
func (f *fakeSub) Boundary(final bool) Boundary {
	if f.inj != nil {
		f.rules = append(f.rules, len(f.inj.Rules()))
	}
	return Boundary{At: f.now}
}

// fakeEmu is a fakeSub that also offers the emulator-only vocabulary.
type fakeEmu struct{ *fakeSub }

func (f fakeEmu) SetLatencyFactor(x float64)      { f.record("latency-factor", -1, x) }
func (f fakeEmu) SetExtraLatency(d time.Duration) { f.record("extra-latency", -1, d) }
func (f fakeEmu) SetLoss(p float64)               { f.record("loss", -1, p) }
func (f fakeEmu) RankedNodes() []peer.ID {
	// Best-first = descending id, so kill-best victims are predictable.
	var out []peer.ID
	for n := len(f.up) + 64; n >= 0; n-- {
		out = append(out, peer.ID(n))
	}
	return out
}

// play runs spec on a fresh fake; emu selects the emulator-capable one.
func play(t *testing.T, spec Spec, emu bool) (*fakeSub, *Report) {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	f := newFakeSub(&spec)
	var sub Substrate = f
	if emu {
		sub = fakeEmu{f}
	}
	pl, err := NewPlayer(&spec, sub)
	if err != nil {
		t.Fatal(err)
	}
	return f, pl.Play(nil)
}

func (f *fakeSub) kinds(kinds ...string) []action {
	var out []action
	for _, a := range f.log {
		for _, k := range kinds {
			if a.kind == k {
				out = append(out, a)
			}
		}
	}
	return out
}

func phase(d float64, traffic ...TrafficSpec) Phase {
	return Phase{Name: fmt.Sprintf("p%v", d), Duration: sec(d), Traffic: traffic}
}

func constant(rate float64) TrafficSpec { return TrafficSpec{Kind: TrafficConstant, Rate: rate} }

// tableSpecs are the 8 builtins plus the two example specs CI plays on
// real sockets.
func tableSpecs(t *testing.T) []Spec {
	t.Helper()
	var specs []Spec
	for _, name := range BuiltinNames() {
		s, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	for _, path := range []string{"live-smoke.json", "chaos-faults.json"} {
		f, err := os.Open("../../examples/scenarios/" + path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		specs = append(specs, s)
	}
	return specs
}

// TestPlayerFiresSpecSchedule checks, over every builtin and CI spec,
// that each action reaches the substrate at its spec offset, in
// (offset, schedule-order), and that the report's timeline is the spec's.
func TestPlayerFiresSpecSchedule(t *testing.T) {
	for _, spec := range tableSpecs(t) {
		t.Run(spec.Name, func(t *testing.T) {
			needsEmu := spec.EmulatorOnly() != nil
			if _, err := NewPlayer(&spec, newFakeSub(&spec)); (err != nil) != needsEmu {
				t.Fatalf("NewPlayer on a non-emulator: err = %v, spec needs emulator = %v", err, needsEmu)
			}
			f, rep := play(t, spec, true)

			var start time.Duration
			log := f.log
			for i := range spec.Phases {
				p := &spec.Phases[i]
				end := start + p.Duration.D()

				// What the spec says happens in this phase, as (offset, kind),
				// in the order the Player schedules: traffic, churn, network.
				type want struct {
					at   time.Duration
					kind string
				}
				var wants []want
				if off, ok := disruption(p); ok {
					wants = append(wants, want{-1, "mark"})
					if w := [2]time.Duration{start + off.D(), end}; log[0].kind != "mark" || log[0].arg != w {
						t.Fatalf("phase %q: first action %+v, want mark %v before any multicast", p.Name, log[0], w)
					}
				}
				for j := range p.Traffic {
					st := NewStream(&p.Traffic[j], StreamSeed(spec.Seed, i, j), spec.Nodes)
					for _, at := range st.Arrivals(p.Duration.D()) {
						wants = append(wants, want{at, "multicast"})
					}
				}
				for j := range p.Churn {
					c := &p.Churn[j]
					k := spec.ChurnCount(c)
					kind := map[string]string{ChurnFlashCrowd: "join", ChurnJoinWave: "join",
						ChurnLeaveWave: "leave", ChurnCrashWave: "crash", ChurnKillBest: "crash"}[c.Kind]
					for n := 0; n < k; n++ {
						at := c.At.D()
						if c.Kind != ChurnFlashCrowd && c.Over > 0 {
							at += c.Over.D() * time.Duration(n) / time.Duration(k)
						}
						wants = append(wants, want{at, kind})
					}
				}
				for j := range p.Network {
					ev := &p.Network[j]
					n := 1
					switch ev.Kind {
					case NetFaultStall, NetFaultCrash:
						n = len(ev.Nodes)
					case NetFaultLink, NetFaultClear, NetFaultSlow:
						n = 0 // applied to the injector, not the substrate
					}
					kind := map[string]string{NetFaultStall: "stall", NetFaultCrash: "crash"}[ev.Kind]
					if kind == "" {
						kind = ev.Kind
					}
					for ; n > 0; n-- {
						wants = append(wants, want{ev.At.D(), kind})
					}
				}
				sort.SliceStable(wants, func(a, b int) bool { return wants[a].at < wants[b].at })

				skipped := 0
				for _, w := range wants {
					if w.kind == "mark" {
						log = log[1:]
						continue
					}
					if len(log) == 0 || log[0].at != start+w.at || log[0].kind != w.kind {
						if w.kind == "multicast" {
							skipped++ // dead source: no substrate call
							continue
						}
						t.Fatalf("phase %q: want %s at +%v, next recorded %+v", p.Name, w.kind, w.at, log[:min(1, len(log))])
					}
					log = log[1:]
				}
				if got := rep.Phases[i].Metrics.SkippedSends; got != skipped {
					t.Fatalf("phase %q: %d skipped sends reported, %d arrivals never reached the substrate", p.Name, got, skipped)
				}
				if got, want := rep.Phases[i].StartMS, ms(start); got != want {
					t.Fatalf("phase %q starts at %v ms, want %v", p.Name, got, want)
				}
				start = end
			}
			if len(log) != 0 {
				t.Fatalf("%d actions the spec does not schedule: %+v", len(log), log)
			}
			if got, want := rep.Elapsed.D(), start+spec.Drain.D(); got != want {
				t.Fatalf("elapsed %v, want phases + drain = %v", got, want)
			}
			if got, want := rep.Overall.LiveNodes, len(f.up); got != want {
				t.Fatalf("live nodes %d, want %d", got, want)
			}
			// The fault-* rule events land on the one injector: rules stand
			// at the boundary after an install, and are gone after a clear.
			if spec.Name == "chaos-faults" {
				if want := []int{0, 0, 3, 0}; !reflect.DeepEqual(f.rules, want) {
					t.Fatalf("injector rules at the phase edges = %v, want %v", f.rules, want)
				}
			}
		})
	}
}

// TestPlayerSameInstantRunsInSpecOrder: events sharing an offset reach
// the substrate in schedule order — traffic, then churn, then network,
// each in spec order.
func TestPlayerSameInstantRunsInSpecOrder(t *testing.T) {
	p := phase(3, constant(1), constant(1))
	p.Churn = []ChurnSpec{
		{Kind: ChurnCrashWave, Count: 1, At: sec(1)},
		{Kind: ChurnLeaveWave, Count: 1, At: sec(1)},
	}
	p.Network = []NetEvent{
		{Kind: NetPartition, Split: 0.5, At: sec(1)},
		{Kind: NetHeal, At: sec(1)},
	}
	f, _ := play(t, Spec{Nodes: 10, Phases: []Phase{p}}, false)
	var got []string
	for _, a := range f.log {
		if a.at == time.Second {
			got = append(got, a.kind)
		}
	}
	want := []string{"multicast", "multicast", "crash", "leave", "partition", "heal"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("same-instant order %v, want %v", got, want)
	}
}

// TestPlayerJoinerIndicesFollowScheduleOrder: provisioned indices are
// handed out when churn is scheduled (spec order), not when it fires.
func TestPlayerJoinerIndicesFollowScheduleOrder(t *testing.T) {
	p := phase(10, constant(1))
	p.Churn = []ChurnSpec{
		{Kind: ChurnJoinWave, Count: 2, At: sec(5), Over: sec(2)},
		{Kind: ChurnFlashCrowd, Count: 2, At: sec(1)},
	}
	f, rep := play(t, Spec{Nodes: 4, Phases: []Phase{p}}, false)
	var got []int
	for _, a := range f.kinds("join") {
		got = append(got, a.node)
		if c := a.arg.(int); c == a.node || !(c < 4 || c == 6) {
			t.Fatalf("joiner %d entered through %d, not a node live at the time", a.node, c)
		}
	}
	if want := []int{6, 7, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("joiners fired as %v, want %v (the later-listed flash crowd fires first with the later indices)", got, want)
	}
	if rep.Joiners != 4 || rep.Overall.LiveNodes != 8 {
		t.Fatalf("joiners %d live %d, want 4 and 8", rep.Joiners, rep.Overall.LiveNodes)
	}
}

// TestPlayerSparesLastOriginal: a crash wave larger than the population
// eats joiners but never the last live original, which the headline
// metrics are scoped to.
func TestPlayerSparesLastOriginal(t *testing.T) {
	grow := phase(5, constant(1))
	grow.Churn = []ChurnSpec{{Kind: ChurnFlashCrowd, Count: 4, At: sec(1)}}
	collapse := phase(5, constant(1))
	collapse.Churn = []ChurnSpec{{Kind: ChurnCrashWave, Count: 12, At: sec(1), Over: sec(3)}}
	for seed := int64(1); seed <= 20; seed++ {
		f, _ := play(t, Spec{Nodes: 3, Seed: seed, Phases: []Phase{grow, collapse}}, false)
		live := f.LiveAll()
		if len(live) != 1 || live[0] >= 3 {
			t.Fatalf("seed %d: survivors %v, want exactly one original", seed, live)
		}
		joiners := 0
		for _, a := range f.kinds("crash") {
			if a.node >= 3 {
				joiners++
			}
		}
		if kills := len(f.kinds("crash")); kills != 6 || joiners != 4 {
			t.Fatalf("seed %d: %d kills (%d joiners), want 6 of 7 participants with all 4 joiners among them", seed, kills, joiners)
		}
	}
}

// TestPlayerDeadFixedSenderSkips: a fixed sender's traffic disappears
// with it — counted, not remapped.
func TestPlayerDeadFixedSenderSkips(t *testing.T) {
	p := phase(5, TrafficSpec{Kind: TrafficConstant, Rate: 1, Senders: SendersFixed, FixedSenders: []int{2}})
	p.Network = []NetEvent{{Kind: NetFaultCrash, Nodes: []int{2}, At: sec(1.5)}}
	f, rep := play(t, Spec{Nodes: 5, Phases: []Phase{p}}, false)
	if sent := f.kinds("multicast"); len(sent) != 1 || sent[0].node != 2 || sent[0].at != time.Second {
		t.Fatalf("multicasts %+v, want one from node 2 at 1s", sent)
	}
	if got := rep.Phases[0].Metrics.SkippedSends; got != 3 || rep.Overall.SkippedSends != 3 {
		t.Fatalf("skipped %d (overall %d), want the 3 arrivals after the crash", got, rep.Overall.SkippedSends)
	}
}

// TestPlayerSplitShorthand: split partitions the first round(split·N)
// initial nodes from everyone else.
func TestPlayerSplitShorthand(t *testing.T) {
	p := phase(2)
	p.Network = []NetEvent{{Kind: NetPartition, Split: 0.5}}
	f, _ := play(t, Spec{Nodes: 7, Phases: []Phase{p}}, false)
	cuts := f.kinds("partition")
	if want := [][]int{{0, 1, 2, 3}}; len(cuts) != 1 || !reflect.DeepEqual(cuts[0].arg, want) {
		t.Fatalf("partition %+v, want sides %v", cuts, want)
	}
}

// TestPlayerRefusedKindsFailAtNew: a substrate without the Emulator
// vocabulary refuses each emulator-only kind when the player is built,
// so no run can reach one.
func TestPlayerRefusedKindsFailAtNew(t *testing.T) {
	for _, mutate := range []func(*Phase){
		func(p *Phase) { p.Churn = []ChurnSpec{{Kind: ChurnKillBest, Count: 1}} },
		func(p *Phase) { p.Network = []NetEvent{{Kind: NetLatencyFactor, Factor: 2}} },
		func(p *Phase) { p.Network = []NetEvent{{Kind: NetExtraLatency, Extra: sec(1)}} },
		func(p *Phase) { p.Network = []NetEvent{{Kind: NetLoss, Loss: 0.1}} },
	} {
		spec := Spec{Nodes: 5, Phases: []Phase{phase(2, constant(1))}}
		mutate(&spec.Phases[0])
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		if _, err := NewPlayer(&spec, newFakeSub(&spec)); err == nil {
			t.Fatalf("non-emulator substrate accepted %+v", spec.Phases[0])
		}
		f, _ := play(t, spec, true)
		if len(f.kinds("crash", "latency-factor", "extra-latency", "loss")) != 1 {
			t.Fatalf("emulator substrate did not play %+v: %+v", spec.Phases[0], f.log)
		}
	}
}
