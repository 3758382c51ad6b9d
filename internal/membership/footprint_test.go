package membership

import (
	"math/rand"
	"testing"

	"emcast/internal/peer"
)

// TestViewFootprint pins the byte report of a hand-built view: 5 peers
// appended into a size-15 view means cap(peers) has grown 1→2→4→8, and
// Add does not touch the eviction pool, the view's one scratch buffer.
func TestViewFootprint(t *testing.T) {
	v := NewView(Config{ViewSize: 15, ShuffleSize: 7}, 0, rand.New(rand.NewSource(1)))

	fp := v.Footprint()
	if fp.Subsystem != "membership" || fp.Bytes != 0 || fp.Items != 0 {
		t.Fatalf("empty view footprint = %+v, want membership/0/0", fp)
	}

	for i := 1; i <= 5; i++ {
		v.Add(peer.ID(i))
	}
	fp = v.Footprint()
	wantBytes := int64(cap(v.peers)) * 4
	if fp.Bytes != wantBytes {
		t.Errorf("footprint bytes = %d, want %d", fp.Bytes, wantBytes)
	}
	// Pin the arithmetic concretely too: append growth for 5 entries is
	// cap 8, so 8*4 = 32.
	if cap(v.peers) == 8 && fp.Bytes != 32 {
		t.Errorf("footprint bytes = %d, want 32", fp.Bytes)
	}
	if fp.Items != 5 {
		t.Errorf("footprint items = %d, want 5", fp.Items)
	}
}
