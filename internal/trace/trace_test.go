package trace

import (
	"testing"
	"time"

	"emcast/internal/ids"
	"emcast/internal/peer"
)

var (
	idA = ids.ID{1}
	idB = ids.ID{2}
)

func TestMakeLinkNormalises(t *testing.T) {
	if MakeLink(5, 2) != MakeLink(2, 5) {
		t.Fatal("link endpoints not normalised")
	}
	l := MakeLink(7, 3)
	if l.A != 3 || l.B != 7 {
		t.Fatalf("link = %+v, want {3 7}", l)
	}
}

// The TestCollector* tests pin the Streaming collector's bookkeeping
// against hand-computed expectations.

func TestCollectorMessageLifecycle(t *testing.T) {
	s := NewStreaming()
	s.Multicast(1, idA, 100*time.Millisecond)
	s.Delivered(1, idA, 100*time.Millisecond)
	s.Delivered(2, idA, 150*time.Millisecond)
	s.Delivered(3, idA, 160*time.Millisecond)

	msgs := s.MessageStats()
	if len(msgs) != 1 {
		t.Fatalf("messages = %d", len(msgs))
	}
	m := msgs[0]
	if m.Origin != 1 || m.SentAt != 100*time.Millisecond {
		t.Fatalf("message meta = %+v", m)
	}
	if delivered := s.Checkpoint().TotalDelivered; m.Deliveries != 3 || delivered != 3 {
		t.Fatalf("deliveries = %d / %d", m.Deliveries, delivered)
	}
}

func TestCollectorDeliveryWithoutMulticast(t *testing.T) {
	s := NewStreaming()
	s.Delivered(2, idB, time.Second)
	msgs := s.MessageStats()
	if len(msgs) != 1 {
		t.Fatal("orphan delivery not recorded")
	}
	if msgs[0].Origin != peer.None || msgs[0].SentAt >= 0 {
		t.Fatalf("orphan message meta = %+v", msgs[0])
	}
}

func TestCollectorLinkAggregation(t *testing.T) {
	s := NewStreaming()
	s.PayloadSent(1, 2, idA, 100, true)
	s.PayloadSent(2, 1, idA, 50, false) // same undirected connection
	s.PayloadSent(1, 3, idB, 25, true)

	cp := s.Checkpoint()
	if cp.Links.Len() != 2 {
		t.Fatalf("links = %d, want 2", cp.Links.Len())
	}
	l12 := cp.Links.Get(MakeLink(1, 2))
	if l12.Payloads != 2 || l12.Bytes != 150 {
		t.Fatalf("link 1-2 = %+v", l12)
	}
	if cp.EagerPayloads != 2 || cp.LazyPayloads != 1 {
		t.Fatalf("eager=%d lazy=%d", cp.EagerPayloads, cp.LazyPayloads)
	}
	if byNode := s.NodePayloads(); byNode[1] != 2 || byNode[2] != 1 {
		t.Fatalf("per-node = %v", byNode)
	}
	if cp.PayloadBytes != 175 {
		t.Fatalf("bytes = %d", cp.PayloadBytes)
	}
}

func TestCollectorCounters(t *testing.T) {
	s := NewStreaming()
	s.ControlSent(1, 2, "IHAVE", 17)
	s.ControlSent(1, 2, "IWANT", 17)
	s.DuplicatePayload(3, idA)
	s.RequestMiss(4, idA)
	cp := s.Checkpoint()
	if cp.ControlFrames != 2 || cp.ControlBytes != 34 {
		t.Fatalf("control = %d/%d", cp.ControlFrames, cp.ControlBytes)
	}
	if cp.Duplicates != 1 || cp.RequestMisses != 1 {
		t.Fatalf("dup=%d miss=%d", cp.Duplicates, cp.RequestMisses)
	}
}

func TestNopTracerIsSafe(t *testing.T) {
	var n Nop
	n.Multicast(1, idA, 0)
	n.Delivered(1, idA, 0)
	n.PayloadSent(1, 2, idA, 1, true)
	n.ControlSent(1, 2, "IHAVE", 1)
	n.DuplicatePayload(1, idA)
	n.RequestMiss(1, idA)
}
