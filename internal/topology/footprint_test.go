package topology

import (
	"testing"
	"time"
)

// TestMatrixFootprint pins the matrix's byte report as an identity: the
// fixed per-client and per-router collapse state plus the tables, the same
// cold, after lookups, after row views and after a whole-plane pass —
// nothing the matrix holds grows with use.
func TestMatrixFootprint(t *testing.T) {
	p := DefaultParams().Scaled(8)
	p.Clients = 40
	p.Seed = 7
	m := Generate(p).ClientMatrix()
	routers := len(m.stubNode)

	// Scaled(8): 128 two-router stub components (3×3 with the gateway),
	// 32 transit routers, 8-byte entries; 24 bytes per attach router.
	tables := int64(128*3*3*8 + 32*32*8 + routers*24)
	fixed := int64(m.N)*perClientBytes + int64(routers)*perRouterBytes
	cold := m.Footprint()
	if cold.Subsystem != "topology" || cold.Bytes != fixed+tables || cold.Items != int64(routers) {
		t.Fatalf("cold footprint = %+v, want topology, fixed %d + tables %d, %d attach routers", cold, fixed, tables, routers)
	}

	row, hrow := make([]time.Duration, m.N), make([]int, m.N)
	for i := 0; i < m.N; i++ {
		m.LatencyRowInto(row, i)
		m.HopsRowInto(hrow, i)
		m.Latency(i, (i+1)%m.N)
	}
	m.Stats(0)
	if fp := m.Footprint(); fp != cold {
		t.Fatalf("footprint after use = %+v, cold %+v", fp, cold)
	}
	if routers > m.N {
		t.Fatalf("more attach routers (%d) than clients (%d)", routers, m.N)
	}
}
