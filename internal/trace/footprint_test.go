package trace

import (
	"testing"
	"time"

	"emcast/internal/ids"
)

// TestStreamingFootprint pins the streaming collector's byte report on a
// hand-built trace — one message, two deliveries, one payload on one
// link — retained-completions span included.
func TestStreamingFootprint(t *testing.T) {
	s := NewStreaming()
	fp := s.Footprint()
	if fp.Subsystem != "trace" || fp.Bytes != 0 || fp.Items != 0 {
		t.Fatalf("empty streaming footprint = %+v, want trace/0/0", fp)
	}

	s.RetainCompletions(0, time.Second)
	id := ids.ID{1}
	s.Multicast(0, id, 0)
	s.Delivered(0, id, 0)
	s.Delivered(1, id, 10*time.Millisecond)
	s.PayloadSent(0, 1, id, 300, true)

	fp = s.Footprint()
	if fp.Items != 1 {
		t.Fatalf("items = %d, want 1", fp.Items)
	}
	// Hand arithmetic: order cap 1 → 16; messages table 8 index slots ×
	// 4 B + 8 entries × (16-byte ID + 8-byte pointer) = 32 + 192 = 224;
	// retain span cap 1 → 16; core: 8-slot link table (192) +
	// sender-count slice cap 1 → 8; MsgStats 120 + one non-origin latency
	// (cap 1 → 8) + one bitset word (cap 1 → 8) + two retained
	// completions (cap 2 → 32).
	want := int64(16 + 224 + 16 + 192 + 8 + msgStatsBytes + 8 + 8 + 2*deliveryBytes)
	if fp.Bytes != want {
		t.Fatalf("bytes = %d, want %d", fp.Bytes, want)
	}

	// Without retention the per-delivery records are never charged.
	s2 := NewStreaming()
	s2.Multicast(0, id, 0)
	s2.Delivered(0, id, 0)
	s2.Delivered(1, id, 10*time.Millisecond)
	s2.PayloadSent(0, 1, id, 300, true)
	lean := s2.Footprint()
	if lean.Bytes != want-16-2*deliveryBytes {
		t.Fatalf("unretained bytes = %d, want %d", lean.Bytes, want-16-2*deliveryBytes)
	}
}
