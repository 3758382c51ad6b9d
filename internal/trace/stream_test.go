package trace

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"emcast/internal/ids"
	"emcast/internal/peer"
)

// feed replays one synthetic event sequence into a Tracer: three messages
// (one of them an orphan whose multicast is never traced, one with a
// payload traced before its multicast), deliveries from several nodes,
// and every counter-bearing event kind.
func feed(tr Tracer) {
	g := ids.NewGenerator(7)
	a, b, c := g.Next(), g.Next(), g.Next()

	tr.Multicast(0, a, 10*time.Millisecond)
	tr.Delivered(0, a, 10*time.Millisecond) // origin's local delivery
	tr.PayloadSent(0, 1, a, 256, true)
	tr.Delivered(1, a, 14*time.Millisecond)
	tr.PayloadSent(1, 2, a, 256, false)
	tr.Delivered(2, a, 31*time.Millisecond)
	tr.DuplicatePayload(2, a)

	// b: payload crosses the tracer before the multicast (real-network
	// ordering); the count must still be attributed to b.
	tr.PayloadSent(3, 4, b, 512, true)
	tr.Multicast(3, b, 40*time.Millisecond)
	tr.Delivered(3, b, 40*time.Millisecond)
	tr.Delivered(4, b, 55*time.Millisecond)
	tr.ControlSent(4, 3, "ihave", 24)
	tr.RequestMiss(4, b)

	// c: orphan — delivered but never multicast in the trace.
	tr.Delivered(5, c, 70*time.Millisecond)
}

// TestStreamingMatchesCollector pins the streaming fold against the full
// collector: identical aggregates, counters and link loads from the same
// event sequence.
func TestStreamingMatchesCollector(t *testing.T) {
	full := NewCollector()
	str := NewStreaming()
	str.RetainCompletions(0, time.Hour) // completions comparable too
	feed(full)
	feed(str)

	if got, want := str.Checkpoint(), full.Checkpoint(); !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoints differ:\nstreaming: %+v\nfull:      %+v", got, want)
	}
	if got, want := str.NodePayloads(), full.NodePayloads(); !reflect.DeepEqual(got, want) {
		t.Fatalf("node payloads differ: %v vs %v", got, want)
	}

	fm, sm := full.MessageStats(), str.MessageStats()
	if len(fm) != len(sm) {
		t.Fatalf("message counts differ: %d vs %d", len(fm), len(sm))
	}
	live := map[peer.ID]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true}
	for i := range fm {
		f, s := &fm[i], &sm[i]
		if f.ID != s.ID || f.Origin != s.Origin || f.SentAt != s.SentAt {
			t.Fatalf("message %d identity differs: %+v vs %+v", i, f, s)
		}
		if f.Deliveries != s.Deliveries || f.Payloads != s.Payloads {
			t.Fatalf("message %d counts differ: %+v vs %+v", i, f, s)
		}
		if !reflect.DeepEqual(f.Latencies, s.Latencies) {
			t.Fatalf("message %d latencies differ: %v vs %v", i, f.Latencies, s.Latencies)
		}
		if f.DeliveredAmong(live) != s.DeliveredAmong(live) {
			t.Fatalf("message %d delivered-among differs", i)
		}
		// Orphans (multicast never traced) sit outside every markable
		// span, and every recovery window starts at >= 0, so their
		// completions are never queried; compare real messages only.
		if f.SentAt >= 0 {
			fc, fok := f.CompletionAmong(live)
			sc, sok := s.CompletionAmong(live)
			if fc != sc || fok != sok {
				t.Fatalf("message %d completion differs: %v/%v vs %v/%v", i, fc, fok, sc, sok)
			}
		}
		for n := peer.ID(0); n < 8; n++ {
			if f.DeliveredBy(n) != s.DeliveredBy(n) {
				t.Fatalf("message %d DeliveredBy(%d) differs", i, n)
			}
		}
	}
}

// TestStreamingRetiresCompletions: outside marked spans no per-delivery
// records are kept, and recovery-style queries report not-ok instead of a
// silently wrong completion time.
func TestStreamingRetiresCompletions(t *testing.T) {
	s := NewStreaming()
	s.RetainCompletions(100*time.Millisecond, 200*time.Millisecond)
	g := ids.NewGenerator(1)
	in, out := g.Next(), g.Next()
	s.Multicast(0, in, 150*time.Millisecond)
	s.Delivered(1, in, 160*time.Millisecond)
	s.Multicast(0, out, 250*time.Millisecond)
	s.Delivered(1, out, 260*time.Millisecond)

	live := map[peer.ID]bool{0: true, 1: true}
	msgs := s.MessageStats()
	if !msgs[0].HasCompletions() {
		t.Fatal("message inside the marked span lost its completions")
	}
	if c, ok := msgs[0].CompletionAmong(live); !ok || c != 160*time.Millisecond {
		t.Fatalf("marked completion = %v/%v, want 160ms/true", c, ok)
	}
	if msgs[1].HasCompletions() {
		t.Fatal("message outside the marked span retained completions")
	}
	if _, ok := msgs[1].CompletionAmong(live); ok {
		t.Fatal("unmarked delivered message claimed an exact completion")
	}
	// An unmarked message with no deliveries is exactly representable.
	empty := MsgStats{}
	if c, ok := empty.CompletionAmong(live); !ok || c != 0 {
		t.Fatalf("empty message completion = %v/%v, want 0/true", c, ok)
	}
}

// TestStreamingOrphanStaysOrphan mirrors the full collector's partial-
// trace convention: a delivery for an untraced multicast records an
// unknown-origin message, and a late Multicast does not resurrect it.
func TestStreamingOrphanStaysOrphan(t *testing.T) {
	s := NewStreaming()
	id := ids.NewGenerator(3).Next()
	s.Delivered(4, id, 20*time.Millisecond)
	s.Multicast(0, id, 5*time.Millisecond) // late; must be ignored
	msgs := s.MessageStats()
	if len(msgs) != 1 {
		t.Fatalf("messages = %d, want 1", len(msgs))
	}
	if msgs[0].Origin != peer.None || msgs[0].SentAt >= 0 {
		t.Fatalf("orphan meta = %+v, want unknown origin and negative SentAt", msgs[0])
	}
	if len(msgs[0].Latencies) != 0 {
		t.Fatalf("orphan recorded latencies: %v", msgs[0].Latencies)
	}
}

// TestStreamingConcurrent shares one streaming collector the way the live
// harness does — behind Locked, folded into from many goroutines while
// another takes boundaries and marks recovery spans — and checks, under
// -race, the totals and the one-lock guarantee of CheckpointAndMessages:
// a snapshot taken mid-run has exactly as many deliveries in its message
// copies as in its counters.
func TestStreamingConcurrent(t *testing.T) {
	l := NewLocked(NewStreaming())
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := ids.NewGenerator(int64(w + 1))
			for i := 0; i < per; i++ {
				id := g.Next()
				at := time.Duration(i) * time.Millisecond
				l.Multicast(peer.ID(w), id, at)
				l.Delivered(peer.ID(w), id, at)
				l.PayloadSent(peer.ID(w), peer.ID(w+1), id, 64, i%2 == 0)
				l.ControlSent(peer.ID(w), peer.ID(w+1), "IHAVE", 17)
				l.DuplicatePayload(peer.ID(w), id)
				l.RequestMiss(peer.ID(w), id)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			l.RetainCompletions(time.Duration(i)*time.Millisecond, time.Duration(i+1)*time.Millisecond)
			cp, msgs := l.CheckpointAndMessages()
			sum := 0
			for _, m := range msgs {
				sum += m.Deliveries
			}
			if sum != cp.TotalDelivered {
				t.Errorf("snapshot %d: %d deliveries in the message copies, %d in the counters", i, sum, cp.TotalDelivered)
				return
			}
			if later := l.Checkpoint().TotalDelivered; later < cp.TotalDelivered {
				t.Errorf("counters went backwards: %d after %d", later, cp.TotalDelivered)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	cp, msgs := l.CheckpointAndMessages()
	if cp.TotalDelivered != workers*per || cp.TotalPayloads != workers*per || cp.ControlFrames != workers*per {
		t.Fatalf("totals = %d delivered / %d payloads / %d control, want %d each",
			cp.TotalDelivered, cp.TotalPayloads, cp.ControlFrames, workers*per)
	}
	if len(msgs) != workers*per {
		t.Fatalf("messages = %d, want %d", len(msgs), workers*per)
	}
}
