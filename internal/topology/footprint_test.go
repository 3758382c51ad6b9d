package topology

import "testing"

// TestMatrixFootprint pins the matrix's byte report: resident quantized
// rows plus the fixed per-client and per-router bookkeeping plus, from the
// first row on, the row-composition tables — which ResidentBytes, the
// number the budget governs, leaves out — with Items tracking the LRU
// working set through materialization and eviction.
func TestMatrixFootprint(t *testing.T) {
	p := DefaultParams().Scaled(8)
	p.Clients = 40
	p.Seed = 7
	m := Generate(p).ClientMatrix()

	fixed := int64(m.N)*perClientBytes + int64(m.Rows())*perRouterBytes
	fp := m.Footprint()
	if fp.Subsystem != "topology" {
		t.Fatalf("subsystem = %q", fp.Subsystem)
	}
	if fp.Bytes != fixed || fp.Items != 0 {
		t.Fatalf("cold footprint = %+v, want bytes %d items 0", fp, fixed)
	}

	m.Latency(0, 1)
	// Scaled(8): 128 two-router stub components (3×3 with the gateway),
	// 32 transit routers, 8-byte entries; 24 bytes per attach router.
	tables := int64(128*3*3*8 + 32*32*8 + m.Rows()*24)
	row := int64(m.Rows()) * latEntryBytes
	if fp = m.Footprint(); fp.Bytes != fixed+tables+row || m.ResidentBytes() != row {
		t.Fatalf("after one row: footprint %d, resident %d; want fixed %d + tables %d + row %d, resident = row",
			fp.Bytes, m.ResidentBytes(), fixed, tables, row)
	}
	fixed += tables

	m.Materialize()
	fp = m.Footprint()
	if fp.Bytes != m.ResidentBytes()+fixed {
		t.Fatalf("bytes = %d, want resident %d + fixed %d", fp.Bytes, m.ResidentBytes(), fixed)
	}
	if fp.Items != int64(m.Rows()) {
		t.Fatalf("items = %d, want %d resident rows", fp.Items, m.Rows())
	}
	rows := int64(m.Rows())
	full := m.ResidentBytes()

	// Squeeze the cache: the footprint must track the evictions.
	m.SetBudget(full / 2)
	fp = m.Footprint()
	if fp.Bytes >= full+fixed {
		t.Fatalf("bytes = %d did not drop under budget (full %d)", fp.Bytes, full+fixed)
	}
	if fp.Items >= rows || fp.Items < 1 {
		t.Fatalf("items = %d, want in [1, %d)", fp.Items, rows)
	}
	if fp.Bytes != m.ResidentBytes()+fixed {
		t.Fatalf("bytes = %d, want resident %d + fixed %d", fp.Bytes, m.ResidentBytes(), fixed)
	}
}
