package trace

import (
	"math/rand"
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

// retainTracer is a Tracer that takes recovery-span marks: Streaming and
// its test reference.
type retainTracer interface {
	Tracer
	RetainCompletions(from, to time.Duration)
}

// randomFeed replays a seeded random sequence of n events into every
// tracer: a small pool of message ids, so multicasts repeat and
// deliveries and payloads land before their multicast (orphans and pending
// payloads), a peer.None delivery now and then, senders beyond the dense
// per-node range, and recovery-span marks between the events.
func randomFeed(seed int64, n int, trs ...retainTracer) {
	rng := rand.New(rand.NewSource(seed))
	g := ids.NewGenerator(seed)
	pool := make([]ids.ID, 4+rng.Intn(16))
	for i := range pool {
		pool[i] = g.Next()
	}
	const nodes = 12
	node := func() peer.ID {
		if rng.Intn(40) == 0 {
			return payloadByNodeMax + peer.ID(rng.Intn(3))
		}
		return peer.ID(rng.Intn(nodes))
	}
	var at time.Duration
	for i := 0; i < n; i++ {
		at += time.Duration(rng.Intn(5)) * time.Millisecond
		id := pool[rng.Intn(len(pool))]
		switch k := rng.Intn(100); {
		case k < 12:
			origin := peer.ID(rng.Intn(nodes))
			for _, tr := range trs {
				tr.Multicast(origin, id, at)
			}
		case k < 45:
			dst := peer.ID(rng.Intn(nodes))
			if rng.Intn(25) == 0 {
				dst = peer.None
			}
			for _, tr := range trs {
				tr.Delivered(dst, id, at)
			}
		case k < 75:
			from, to, bytes, eager := node(), node(), 1+rng.Intn(1024), rng.Intn(3) > 0
			for _, tr := range trs {
				tr.PayloadSent(from, to, id, bytes, eager)
			}
		case k < 85:
			from, to, bytes := node(), node(), 1+rng.Intn(64)
			for _, tr := range trs {
				tr.ControlSent(from, to, "ihave", bytes)
			}
		case k < 90:
			for _, tr := range trs {
				tr.DuplicatePayload(peer.ID(rng.Intn(nodes)), id)
			}
		case k < 95:
			for _, tr := range trs {
				tr.RequestMiss(peer.ID(rng.Intn(nodes)), id)
			}
		default:
			from := at + time.Duration(rng.Intn(200)-50)*time.Millisecond
			to := from + time.Duration(rng.Intn(300))*time.Millisecond
			for _, tr := range trs {
				tr.RetainCompletions(from, to)
			}
		}
	}
}

// TestStreamingMatchesReference pins the streaming fold against the raw
// event log of reference_test.go, through the exported accessors only:
// identical counters, link loads, per-node payloads and per-message
// aggregates, on the hand-built feed and on seeded random sequences.
func TestStreamingMatchesReference(t *testing.T) {
	t.Run("feed", func(t *testing.T) {
		s, r := NewStreaming(), &reference{}
		s.RetainCompletions(0, time.Hour)
		r.RetainCompletions(0, time.Hour)
		feed(s)
		feed(r)
		checkAgainstReference(t, s, r)
	})
	for seed := int64(1); seed <= 200; seed++ {
		s, r := NewStreaming(), &reference{}
		if seed%2 == 0 {
			s.Presize(12) // the presized fold must not change a value
		}
		randomFeed(seed, 300, s, r)
		if !checkAgainstReference(t, s, r) {
			t.Fatalf("seed %d: streaming fold diverged from the reference", seed)
		}
	}
}

// checkAgainstReference reports every difference between s and r and
// whether there was none.
func checkAgainstReference(t *testing.T, s *Streaming, r *reference) bool {
	t.Helper()
	ok := true
	fail := func(format string, args ...interface{}) {
		t.Helper()
		t.Errorf(format, args...)
		ok = false
	}
	cp := s.Checkpoint()
	if want := r.counters(); cp.Counters != want {
		fail("counters = %+v, want %+v", cp.Counters, want)
	}
	links := r.links()
	if cp.Links.Len() != len(links) {
		fail("links = %d, want %d", cp.Links.Len(), len(links))
	}
	for l, want := range links {
		if got := cp.Links.Get(l); got != want {
			fail("link %v = %+v, want %+v", l, got, want)
		}
	}
	cp.Links.Range(func(l Link, got LinkLoad) {
		if want, seen := links[l]; !seen || got != want {
			fail("ranged link %v = %+v, want %+v (present %v)", l, got, want, seen)
		}
	})
	if got, want := s.NodePayloads(), r.nodePayloads(); !reflect.DeepEqual(got, want) {
		fail("node payloads = %v, want %v", got, want)
	}

	sm, rm := s.MessageStats(), r.messages()
	if len(sm) != len(rm) {
		fail("messages = %d, want %d", len(sm), len(rm))
		return false
	}
	all, even := map[peer.ID]bool{}, map[peer.ID]bool{}
	for n := peer.ID(0); n < 16; n++ {
		all[n] = true
		if n%2 == 0 {
			even[n] = true
		}
	}
	for i := range sm {
		got, want := &sm[i], rm[i]
		if got.ID != want.id || got.Origin != want.origin || got.SentAt != want.sentAt {
			fail("message %d = %v/%d/%v, want %v/%d/%v", i, got.ID, got.Origin, got.SentAt, want.id, want.origin, want.sentAt)
			continue
		}
		if got.Deliveries != len(want.deliveries) || got.Payloads != want.payloads {
			fail("message %d deliveries/payloads = %d/%d, want %d/%d", i, got.Deliveries, got.Payloads, len(want.deliveries), want.payloads)
		}
		if lat := want.latencies(); len(got.Latencies) != len(lat) {
			fail("message %d latencies = %v, want %v", i, got.Latencies, lat)
		} else {
			for j := range lat {
				if got.Latencies[j] != lat[j] {
					fail("message %d latencies = %v, want %v", i, got.Latencies, lat)
					break
				}
			}
		}
		for n := peer.ID(0); n < 16; n++ {
			if got.DeliveredBy(n) != want.delivered[n] {
				fail("message %d DeliveredBy(%d) = %v", i, n, got.DeliveredBy(n))
			}
		}
		if got.DeliveredBy(peer.None) {
			fail("message %d delivered by peer.None", i)
		}
		for _, live := range []map[peer.ID]bool{all, even} {
			n := 0
			for p := range want.delivered {
				if live[p] {
					n++
				}
			}
			if got.DeliveredAmong(live) != n {
				fail("message %d DeliveredAmong = %d, want %d", i, got.DeliveredAmong(live), n)
			}
			gc, gok := got.CompletionAmong(live)
			wc, wok := want.completionAmong(live)
			if gc != wc || gok != wok {
				fail("message %d CompletionAmong = %v/%v, want %v/%v", i, gc, gok, wc, wok)
			}
		}
	}
	return ok
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
	if msgs[0].completions == nil {
		t.Fatal("message inside the marked span lost its completions")
	}
	if c, ok := msgs[0].CompletionAmong(live); !ok || c != 160*time.Millisecond {
		t.Fatalf("marked completion = %v/%v, want 160ms/true", c, ok)
	}
	if msgs[1].completions != nil {
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

// TestStreamingOrphanStaysOrphan pins the partial-trace convention: a
// delivery for an untraced multicast records an unknown-origin message,
// and a late Multicast does not resurrect it.
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
