package emunet

import (
	"testing"
	"time"
	"unsafe"
)

// TestEventSlotBytesPin pins the Footprint unit to the real struct size:
// if a field is added to event, eventSlotBytes must be updated in the
// same commit or every byte report silently drifts.
func TestEventSlotBytesPin(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != eventSlotBytes {
		t.Fatalf("unsafe.Sizeof(event{}) = %d, eventSlotBytes = %d — update the constant", got, eventSlotBytes)
	}
}

// TestWheelFootprintExactBytes pins the wheel's byte report with
// hand-derived slot counts — no slotCap() in the expectation, so the
// walk itself is under test: bucket cells come from the size-classed
// free lists (first cell cap 8), growing a full cell doubles it and
// retires the old one to the free list (still charged — arena
// semantics), and the frame arena charges each 16 KiB chunk it carves
// for a size class, in flight or parked.
func TestWheelFootprintExactBytes(t *testing.T) {
	fixed := int64(2) * (16 + 1 + 8) // 2 × (handler iface + silenced + group)

	// Nine same-instant sends on one link land in one L0 bucket: the
	// cell grows 8 → 16 on the ninth push and the old cap-8 cell moves
	// to the free list, so 24 slots are retained in total. The nine
	// 100 B frames take nine 128 B buffers of one chunk.
	n := New(2, constLatency(time.Millisecond), Config{})
	n.Register(1, HandlerFunc(func(int, []byte) {}))
	for i := 0; i < 9; i++ {
		n.Send(0, 1, make([]byte, 100))
	}
	fp := n.Footprint()
	if want := int64(24)*eventSlotBytes + 16<<10 + fixed; fp.Bytes != want {
		t.Fatalf("9 same-bucket sends: bytes = %d, want %d (24 slots + 16 KiB chunk + %d fixed)",
			fp.Bytes, want, fixed)
	}
	if fp.Items != 9 {
		t.Fatalf("items = %d, want 9", fp.Items)
	}

	// Draining delivers all frames: their buffers park in the arena and
	// stay charged, as do the 24 slots (16 in the spent
	// bucket-turned-cur cell, 8 in the free list).
	drain(n)
	fp = n.Footprint()
	if want := int64(24)*eventSlotBytes + 16<<10 + fixed; fp.Bytes != want {
		t.Fatalf("after drain: bytes = %d, want %d", fp.Bytes, want)
	}
	if fp.Items != 0 {
		t.Fatalf("after drain: items = %d, want 0", fp.Items)
	}

	// A deliver at 1ms (tick 122, L0) and a timer at 10ms (tick 1220,
	// beyond the 256-tick L0 horizon → L1) occupy two distinct bucket
	// cells: 2 × 8 slots; the 40 B frame takes a chunk of 64 B buffers.
	n2 := New(2, constLatency(time.Millisecond), Config{})
	n2.Register(1, HandlerFunc(func(int, []byte) {}))
	n2.Send(0, 1, make([]byte, 40))
	n2.AfterFunc(10*time.Millisecond, func() {})
	fp = n2.Footprint()
	if want := int64(16)*eventSlotBytes + 16<<10 + fixed; fp.Bytes != want {
		t.Fatalf("L0+L1 buckets: bytes = %d, want %d (two cap-8 cells)", fp.Bytes, want)
	}
	if fp.Items != 2 {
		t.Fatalf("items = %d, want 2", fp.Items)
	}
}
