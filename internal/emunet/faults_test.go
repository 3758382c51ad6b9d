package emunet

import (
	"testing"
	"time"

	"emcast/internal/faults"
)

func TestFaultDropCountsAsLost(t *testing.T) {
	n := New(2, constLatency(time.Millisecond), Config{})
	rec := &recorder{net: n}
	n.Register(1, rec)
	inj := faults.New(1)
	if err := inj.Install(faults.LinkRule{Drop: 1}); err != nil {
		t.Fatal(err)
	}
	n.SetFaults(inj)
	for i := 0; i < 10; i++ {
		n.Send(0, 1, []byte("x"))
	}
	drain(n)
	if len(rec.frames) != 0 {
		t.Fatalf("delivered %d frames through a drop-all rule", len(rec.frames))
	}
	if n.FramesLost != 10 {
		t.Fatalf("FramesLost = %d, want 10", n.FramesLost)
	}
	if s := inj.Stats(); s.Dropped != 10 {
		t.Fatalf("injector dropped = %d, want 10", s.Dropped)
	}
}

func TestFaultDelayShiftsArrival(t *testing.T) {
	n := New(2, constLatency(10*time.Millisecond), Config{})
	rec := &recorder{net: n}
	n.Register(1, rec)
	inj := faults.New(1)
	if err := inj.Install(faults.LinkRule{Delay: 30 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	n.SetFaults(inj)
	n.Send(0, 1, []byte("x"))
	drain(n)
	if len(rec.frames) != 1 || rec.frames[0].at != 40*time.Millisecond {
		t.Fatalf("frames = %+v, want one at 40ms", rec.frames)
	}
}

func TestFaultDuplicateDeliversTwice(t *testing.T) {
	n := New(2, constLatency(time.Millisecond), Config{})
	rec := &recorder{net: n}
	n.Register(1, rec)
	inj := faults.New(1)
	if err := inj.Install(faults.LinkRule{Duplicate: 1}); err != nil {
		t.Fatal(err)
	}
	n.SetFaults(inj)
	n.Send(0, 1, []byte("dup"))
	drain(n)
	if len(rec.frames) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(rec.frames))
	}
	for _, f := range rec.frames {
		if string(f.frame) != "dup" || f.at != time.Millisecond {
			t.Fatalf("bad duplicate delivery: %+v", f)
		}
	}
	if n.FramesSent != 2 || n.FramesDelivered != 2 {
		t.Fatalf("sent/delivered = %d/%d, want 2/2", n.FramesSent, n.FramesDelivered)
	}
}

func TestFaultReorderLetsLaterFrameOvertake(t *testing.T) {
	n := New(2, constLatency(time.Millisecond), Config{})
	rec := &recorder{net: n}
	n.Register(1, rec)
	inj := faults.New(1)
	// Defer only the first frame (scoped by a one-shot rule swap).
	if err := inj.Install(faults.LinkRule{Reorder: 1, ReorderBy: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	n.SetFaults(inj)
	n.Send(0, 1, []byte("first"))
	inj.Clear()
	n.Send(0, 1, []byte("second"))
	drain(n)
	if len(rec.frames) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(rec.frames))
	}
	if string(rec.frames[0].frame) != "second" || string(rec.frames[1].frame) != "first" {
		t.Fatalf("order = %q, %q; want second before first",
			rec.frames[0].frame, rec.frames[1].frame)
	}
}

func TestFaultStallDefersBothDirections(t *testing.T) {
	n := New(3, constLatency(time.Millisecond), Config{})
	rec1 := &recorder{net: n}
	rec2 := &recorder{net: n}
	n.Register(1, rec1)
	n.Register(2, rec2)
	inj := faults.New(1)
	inj.Stall(1, 50*time.Millisecond)
	n.SetFaults(inj)
	n.Send(0, 1, []byte("inbound"))    // into the stalled node
	n.Send(1, 2, []byte("outbound"))   // out of the stalled node
	n.Send(0, 2, []byte("unaffected")) // bystander link
	drain(n)
	if len(rec1.frames) != 1 || rec1.frames[0].at != 51*time.Millisecond {
		t.Fatalf("inbound delivery %+v, want 51ms", rec1.frames)
	}
	if len(rec2.frames) != 2 {
		t.Fatalf("node 2 got %d frames, want 2", len(rec2.frames))
	}
	if string(rec2.frames[0].frame) != "unaffected" || rec2.frames[0].at != time.Millisecond {
		t.Fatalf("bystander delivery %+v", rec2.frames[0])
	}
	if string(rec2.frames[1].frame) != "outbound" || rec2.frames[1].at != 51*time.Millisecond {
		t.Fatalf("outbound delivery %+v, want 51ms", rec2.frames[1])
	}
}

// linkLatency gives every directed link its own delay, so arrivals
// spread over distinct instants.
func linkLatency(from, to int) time.Duration {
	return time.Duration(1+from+3*to) * time.Millisecond
}

func TestInertInjectorIsByteIdentical(t *testing.T) {
	run := func(inj *faults.Injector) []recorded {
		n := New(4, linkLatency, Config{Loss: 0.2, Seed: 9})
		rec := &recorder{net: n}
		for i := 1; i < 4; i++ {
			n.Register(i, rec)
		}
		n.SetFaults(inj)
		for i := 0; i < 500; i++ {
			n.Send(i%4, (i+1+i%3)%4, []byte{byte(i), byte(i >> 8)})
		}
		drain(n)
		return rec.frames
	}
	plain := run(nil)
	inert := run(faults.New(77)) // attached but no rules: must change nothing
	if len(plain) != len(inert) {
		t.Fatalf("inert injector changed delivery count: %d vs %d", len(plain), len(inert))
	}
	for i := range plain {
		if plain[i].from != inert[i].from || plain[i].at != inert[i].at ||
			string(plain[i].frame) != string(inert[i].frame) {
			t.Fatalf("delivery %d diverged: %+v vs %+v", i, plain[i], inert[i])
		}
	}
}

func TestFaultedRunIsDeterministic(t *testing.T) {
	run := func() ([]recorded, faults.Stats) {
		n := New(4, linkLatency, Config{Loss: 0.1, Seed: 5})
		rec := &recorder{net: n}
		for i := 0; i < 4; i++ {
			n.Register(i, rec)
		}
		inj := faults.New(123)
		if err := inj.Install(faults.LinkRule{Drop: 0.3, Duplicate: 0.1, DelayJitter: 2 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		n.SetFaults(inj)
		for i := 0; i < 1000; i++ {
			n.Send(i%4, (i+1+i%3)%4, []byte{byte(i), byte(i >> 8)})
		}
		drain(n)
		return rec.frames, inj.Stats()
	}
	a, sa := run()
	b, sb := run()
	if sa != sb {
		t.Fatalf("injector stats diverged: %+v vs %+v", sa, sb)
	}
	if len(a) != len(b) {
		t.Fatalf("delivery counts diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].from != b[i].from || a[i].at != b[i].at || string(a[i].frame) != string(b[i].frame) {
			t.Fatalf("delivery %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	if sa.Dropped == 0 || sa.Duplicated == 0 || sa.Delayed == 0 {
		t.Fatalf("chaotic run injected nothing: %+v", sa)
	}
}
