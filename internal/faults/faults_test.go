package faults

import (
	"testing"
	"time"
)

func TestInertInjectorDrawsNothing(t *testing.T) {
	inj := New(1)
	if inj.Active() {
		t.Fatal("fresh injector active")
	}
	for i := 0; i < 100; i++ {
		if v := inj.Frame(i, i+1); v != (Verdict{}) {
			t.Fatalf("inert injector issued verdict %+v", v)
		}
	}
	if inj.ctr.Load() != 0 {
		t.Fatalf("inert injector consumed %d draws", inj.ctr.Load())
	}
	if s := inj.Stats(); s != (Stats{}) {
		t.Fatalf("inert injector counted activity: %+v", s)
	}
	var nilInj *Injector
	if v := nilInj.Frame(0, 1); v != (Verdict{}) {
		t.Fatal("nil injector issued a verdict")
	}
	if nilInj.Active() {
		t.Fatal("nil injector active")
	}
}

func TestVerdictStreamDeterministic(t *testing.T) {
	mk := func() *Injector {
		inj := New(42)
		if err := inj.Install(LinkRule{Drop: 0.3, Duplicate: 0.2, Reorder: 0.1, DelayJitter: 10 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		return inj
	}
	a, b := mk(), mk()
	for i := 0; i < 5000; i++ {
		va, vb := a.Frame(i%7, i%13), b.Frame(i%7, i%13)
		if va != vb {
			t.Fatalf("draw %d diverged: %+v vs %+v", i, va, vb)
		}
	}
	// A different seed must yield a different stream.
	c := New(43)
	if err := c.Install(LinkRule{Drop: 0.3, Duplicate: 0.2, Reorder: 0.1, DelayJitter: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Frame(i%7, i%13) == c.Frame(i%7, i%13) {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("different seeds produced identical verdict streams")
	}
}

func TestRuleRates(t *testing.T) {
	inj := New(7)
	if err := inj.Install(LinkRule{Drop: 0.5}); err != nil {
		t.Fatal(err)
	}
	const n = 20000
	drops := 0
	for i := 0; i < n; i++ {
		if inj.Frame(0, 1).Drop {
			drops++
		}
	}
	rate := float64(drops) / n
	if rate < 0.45 || rate > 0.55 {
		t.Fatalf("drop rate %.3f, want ~0.5", rate)
	}
	s := inj.Stats()
	if s.Frames != n || s.Dropped != uint64(drops) {
		t.Fatalf("stats %+v disagree with observed %d/%d", s, n, drops)
	}
}

func TestLinkScoping(t *testing.T) {
	inj := New(3)
	if err := inj.Install(LinkRule{From: []int{1}, To: []int{2}, Drop: 1}); err != nil {
		t.Fatal(err)
	}
	if !inj.Frame(1, 2).Drop {
		t.Fatal("scoped rule did not match its link")
	}
	for _, l := range [][2]int{{2, 1}, {1, 3}, {3, 2}, {0, 0}} {
		if v := inj.Frame(l[0], l[1]); v != (Verdict{}) {
			t.Fatalf("rule leaked onto link %v: %+v", l, v)
		}
	}
}

func TestRulesCompose(t *testing.T) {
	inj := New(9)
	if err := inj.Install(LinkRule{Delay: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := inj.Install(LinkRule{From: []int{0}, Delay: 7 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if got := inj.Frame(0, 1).Delay; got != 12*time.Millisecond {
		t.Fatalf("composed delay %v, want 12ms", got)
	}
	if got := inj.Frame(1, 0).Delay; got != 5*time.Millisecond {
		t.Fatalf("unscoped-only delay %v, want 5ms", got)
	}
	inj.Clear()
	if v := inj.Frame(0, 1); v != (Verdict{}) {
		t.Fatalf("verdict after Clear: %+v", v)
	}
}

func TestReorderDefersFrames(t *testing.T) {
	inj := New(11)
	if err := inj.Install(LinkRule{Reorder: 1}); err != nil {
		t.Fatal(err)
	}
	if got := inj.Frame(0, 1).Delay; got != DefaultReorderBy {
		t.Fatalf("reorder delay %v, want %v", got, DefaultReorderBy)
	}
	inj2 := New(11)
	if err := inj2.Install(LinkRule{Reorder: 1, ReorderBy: 123 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if got := inj2.Frame(0, 1).Delay; got != 123*time.Millisecond {
		t.Fatalf("explicit reorder delay %v, want 123ms", got)
	}
}

func TestDroppedFrameReportsOnlyDrop(t *testing.T) {
	inj := New(5)
	if err := inj.Install(LinkRule{Drop: 1, Delay: time.Second, Duplicate: 1}); err != nil {
		t.Fatal(err)
	}
	v := inj.Frame(0, 1)
	if !v.Drop || v.Delay != 0 || v.Duplicate {
		t.Fatalf("dropped frame carries extra effects: %+v", v)
	}
	s := inj.Stats()
	if s.Delayed != 0 || s.Duplicated != 0 {
		t.Fatalf("dropped frame counted as delayed/duplicated: %+v", s)
	}
}

func TestStall(t *testing.T) {
	inj := New(13)
	inj.Stall(4, 10*time.Second)
	if !inj.Active() {
		t.Fatal("stalled injector not active")
	}
	if got := inj.StallDelay(3*time.Second, 4, 1); got != 7*time.Second {
		t.Fatalf("outbound stall delay %v, want 7s", got)
	}
	if got := inj.StallDelay(3*time.Second, 1, 4); got != 7*time.Second {
		t.Fatalf("inbound stall delay %v, want 7s", got)
	}
	if got := inj.StallDelay(11*time.Second, 1, 4); got != 0 {
		t.Fatalf("expired stall still delays: %v", got)
	}
	if got := inj.StallDelay(0, 1, 2); got != 0 {
		t.Fatalf("unrelated link delayed: %v", got)
	}
	// A shorter re-stall must not shrink the deadline.
	inj.Stall(4, 5*time.Second)
	if got := inj.StallDelay(0, 4, 1); got != 10*time.Second {
		t.Fatalf("re-stall shrank deadline to %v", got)
	}
	// Stalled counts deferred frames: three of the calls above deferred.
	if s := inj.Stats(); s.Stalled != 3 {
		t.Fatalf("stalled count %d, want 3", s.Stalled)
	}
}

func TestValidate(t *testing.T) {
	bad := []LinkRule{
		{},                         // injects nothing
		{Drop: 1.5},                // probability out of range
		{Drop: -0.1},               // negative probability
		{Delay: -time.Millisecond}, // negative delay
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("rule %d accepted: %+v", i, r)
		}
		inj := New(1)
		if err := inj.Install(r); err == nil {
			t.Errorf("Install accepted bad rule %d", i)
		}
	}
	if err := (&LinkRule{Drop: 0.5}).Validate(); err != nil {
		t.Fatalf("valid rule rejected: %v", err)
	}
}
