package trace

import (
	"emcast/internal/ids"
	"emcast/internal/obs"
)

// Per-entry size estimates for the Footprint walk. Like every other
// subsystem's accounting these are deterministic arithmetic over lengths
// and capacities — the walk reads and never allocates or mutates, so it
// cannot perturb a seeded run.
const (
	// msgStatsBytes is the fixed part of one MsgStats: ID, origin, sent
	// time, counters and the three slice headers (latencies, bitset words,
	// completions).
	msgStatsBytes = 16 + 8 + 8 + 8 + 8 + 3*24
	// deliveryBytes is one retained completion record (peer.ID + instant,
	// padded).
	deliveryBytes = 16
	// linkLoadBytes is one LinkLoad value (two ints).
	linkLoadBytes = 16
	// spanBytes is one RetainCompletions span (two durations).
	spanBytes = 16
)

// footprintBytes charges the counterCore state: the open-addressing
// link table (8-byte key word plus inline LinkLoad per slot, empty slots
// included — the table is allocated whole) and the dense per-sender count
// slice. The scalar Counters live inline in the collector struct and are
// not charged.
func (c *counterCore) footprintBytes() int64 {
	return int64(cap(c.links.keys))*8 +
		int64(cap(c.links.vals))*linkLoadBytes +
		int64(cap(c.payloadByNode))*8 +
		int64(len(c.payloadByNodeOOB))*(4+8+obs.MapEntryOverhead)
}

// msgStatsFootprint charges one message aggregate: the fixed struct plus
// the full capacity of its latency samples, delivered-bitset words and any
// retained completion records.
func msgStatsFootprint(m *MsgStats) int64 {
	return msgStatsBytes +
		int64(cap(m.Latencies))*8 +
		int64(cap(m.delivered.words))*8 +
		int64(cap(m.completions))*deliveryBytes
}

// Footprint implements obs.Footprinter: the retained bytes of the
// streaming fold — per-message aggregates (latency samples, delivered
// bitsets, retained completions), the multicast order, pending payload
// counts, retention spans and the link/node counters.
func (s *Streaming) Footprint() obs.Footprint {
	bytes := int64(cap(s.order))*ids.IDSize +
		int64(s.messages.TableLen())*(ids.IDSize+8) +
		int64(s.pendingPayloads.TableLen())*(ids.IDSize+8) +
		int64(cap(s.retain))*spanBytes +
		s.core.footprintBytes()
	s.messages.Range(func(_ ids.ID, m *MsgStats) {
		bytes += msgStatsFootprint(m)
	})
	return obs.Footprint{
		Subsystem: "trace",
		Bytes:     bytes,
		Items:     int64(s.messages.Len()),
	}
}

var _ obs.Footprinter = (*Streaming)(nil)
