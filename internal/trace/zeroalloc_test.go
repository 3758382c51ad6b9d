package trace

import (
	"testing"
	"time"

	"emcast/internal/ids"
	"emcast/internal/peer"
)

// TestStreamingDeliveredZeroAlloc pins the Presize contract: once the
// collector knows the population, the per-delivery hot path — Delivered,
// PayloadSent, ControlSent — allocates nothing. The latency slice and
// delivered bitset are presized at message creation, the link table and
// per-sender counters grow only on first contact, so steady-state
// tracing stays off the allocator.
func TestStreamingDeliveredZeroAlloc(t *testing.T) {
	const nodes = 64
	s := NewStreaming()
	s.Presize(nodes)
	id := ids.NewGenerator(7).Next()
	s.Multicast(0, id, 0)
	// Touch every (sender, receiver) pair once so the link table and
	// per-sender payload counters are fully grown before measuring.
	for n := 1; n < nodes; n++ {
		s.PayloadSent(peer.ID(n-1), peer.ID(n), id, 64, true)
		s.Delivered(peer.ID(n), id, time.Duration(n))
	}

	node := 0
	allocs := testing.AllocsPerRun(200, func() {
		from := peer.ID(node % nodes)
		to := peer.ID((node + 1) % nodes)
		s.PayloadSent(from, to, id, 64, true)
		s.ControlSent(to, from, "ihave", 24)
		s.Delivered(to, id, time.Duration(node))
		node++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Delivered/PayloadSent/ControlSent allocate %.1f per event, want 0", allocs)
	}
}

// TestNodePayloadGrowthBounded is a regression test: bumping strictly
// increasing sender IDs once used the doubling-growth path on every
// call (the trigger compared against len, which trailed cap), so cap
// doubled per bump and a few dozen sequential senders exhausted memory.
// Growth must stay within a constant factor of the highest ID seen.
func TestNodePayloadGrowthBounded(t *testing.T) {
	var c counterCore
	const n = 1000
	for i := 0; i < n; i++ {
		c.bumpNodePayload(peer.ID(i))
	}
	if got := cap(c.payloadByNode); got > 4*n {
		t.Fatalf("payloadByNode cap = %d after %d sequential senders, want <= %d", got, n, 4*n)
	}
	for i := 0; i < n; i++ {
		if c.payloadByNode[i] != 1 {
			t.Fatalf("payloadByNode[%d] = %d, want 1", i, c.payloadByNode[i])
		}
	}
}
