package lazy

import (
	"testing"
	"time"
	"unsafe"

	"emcast/internal/ids"
	"emcast/internal/msg"
	"emcast/internal/peer"
	"emcast/internal/strategy"
)

// TestModuleFootprint pins the byte report of a module on its private
// store (no shared store, as on TCP) against hand-built state: a fresh
// module reports zero, a cached payload charges the cache's index and
// rounds plus the private store's table and payload bytes, received ids
// charge the dedup set, and pending requests charge the id→slot table,
// the slab's slots, its free list and spill slices.
func TestModuleFootprint(t *testing.T) {
	f := newFixture(t, 1, &strategy.Flat{P: 0}, Config{})

	fp := f.mod.Footprint()
	if fp.Subsystem != "lazy" || fp.Bytes != 0 || fp.Items != 0 {
		t.Fatalf("empty module footprint = %+v, want lazy/0/0", fp)
	}

	// One cached 100-byte payload (the lazy LSend path caches it): the
	// cache's first 8 index slots × 4 B + its first 8 entries × (16-byte
	// ID + 2-byte round) = 32 + 144 = 176, and the private store's first
	// 8 index slots × 4 B + its first 8 entries × (16-byte ID + 24-byte
	// slice header + 8-byte holder count) = 32 + 384 = 416, payload 100:
	// 692 in all.
	const cacheBytes = 8*4 + 8*(ids.IDSize+2) + 8*4 + 8*(ids.IDSize+24+8)
	id1 := ids.ID{1}
	f.mod.LSend(id1, make([]byte, 100), 1, 2)
	fp = f.mod.Footprint()
	if want := int64(cacheBytes + 100); fp.Bytes != want {
		t.Errorf("after 1 cached payload: bytes = %d, want %d", fp.Bytes, want)
	}
	if fp.Items != 1 {
		t.Errorf("after 1 cached payload: items = %d, want 1", fp.Items)
	}

	// One received 40-byte payload: the dedup set gains one id — its
	// first 8 index slots × 4 B + its first 8 entries × 16-byte ID (the
	// empty-struct values take no space) = 32 + 128 = 160; nothing else
	// retained.
	const receivedBytes = 8*4 + 8*ids.IDSize
	id2 := ids.ID{2}
	f.mod.OnMsg(id2, make([]byte, 40), 1, 3)
	fp = f.mod.Footprint()
	if want := int64(cacheBytes+100) + receivedBytes; fp.Bytes != want {
		t.Errorf("after 1 received payload: bytes = %d, want %d", fp.Bytes, want)
	}
	if fp.Items != 2 {
		t.Errorf("after 1 received payload: items = %d, want 2", fp.Items)
	}

	// One pending request from an IHAVE: the id→slot table allocates its
	// first 8 index slots × 4 B + its first 8 entries × (16-byte ID +
	// 4-byte slot) = 32 + 160 = 192, and the slab its first minSlots
	// slots of 96 bytes, the source held inline; no free slot, no spill
	// yet.
	id3 := ids.ID{3}
	f.mod.OnIHave(id3, 4)
	fp = f.mod.Footprint()
	if _, ok := f.mod.pending.Get(id3); !ok {
		t.Fatalf("pending request for %v not found", id3)
	}
	wantPending := int64(8*4 + 8*(ids.IDSize+4) + minSlots*pendingSlotBytes)
	if want := int64(cacheBytes+100) + receivedBytes + wantPending; fp.Bytes != want {
		t.Errorf("after 1 pending request: bytes = %d, want %d", fp.Bytes, want)
	}
	if fp.Items != 3 {
		t.Errorf("after 1 pending request: items = %d, want 3", fp.Items)
	}

	// Receiving the pending payload clears the request and moves the id
	// into the received set.
	f.advance(time.Second)
	f.mod.OnMsg(id3, make([]byte, 10), 1, 4)
	fp = f.mod.Footprint()
	if f.mod.PendingRequests() != 0 {
		t.Fatalf("pending = %d, want 0", f.mod.PendingRequests())
	}
	// Received set now holds 2 ids, still in its first index and entries
	// (160). The drained id→slot table and the slab stay allocated, and
	// the free list now holds the request's slot.
	free := int64(cap(f.mod.free)) * 4
	if want := int64(cacheBytes+100) + receivedBytes + wantPending + free; fp.Bytes != want {
		t.Errorf("after clearing: bytes = %d, want %d", fp.Bytes, want)
	}

	// Sources beyond the inline ones spill into the slot's spill slice,
	// which the slot keeps when it is reused.
	id4 := ids.ID{4}
	for src := peer.ID(10); src < 10+inlineSources+1; src++ {
		f.mod.OnIHave(id4, src)
	}
	spill := cap(f.mod.reqs[0].spill)
	if spill < inlineSources+1 {
		t.Fatalf("spill cap = %d, want >= %d", spill, inlineSources+1)
	}
	fp = f.mod.Footprint()
	if want := int64(cacheBytes+100) + receivedBytes + wantPending + free + int64(spill)*4; fp.Bytes != want {
		t.Errorf("after a spill: bytes = %d, want %d", fp.Bytes, want)
	}
}

// TestPendingSlotBytesPin keeps Footprint's slot size honest.
func TestPendingSlotBytesPin(t *testing.T) {
	if got := unsafe.Sizeof(pendingRequest{}); got != pendingSlotBytes {
		t.Fatalf("unsafe.Sizeof(pendingRequest{}) = %d, pendingSlotBytes = %d — update the constant", got, pendingSlotBytes)
	}
}

// TestModuleFootprintSharedStore: two modules on one store each charge
// their dedup set and cache entries, while the payload both cache is held
// — and charged — once, by the store, with a hold from each.
func TestModuleFootprintSharedStore(t *testing.T) {
	store := &Payloads{}
	id := ids.ID{1}
	for self := peer.ID(1); self <= 2; self++ {
		f := newFixture(t, self, &strategy.Flat{P: 0}, Config{})
		f.mod.SetPayloads(store)
		f.mod.SetReceiver(receiverFunc(func(id ids.ID, payload []byte, round int, _ peer.ID) {
			f.mod.LSend(id, payload, round+1, 3) // relayed lazily: cached
		}))
		f.mod.OnMsg(id, make([]byte, 100), 1, 4)
		// Received set 8 index slots × 4 B + 8 entries × 16 B = 160, cache
		// 8 index slots × 4 B + 8 entries × (16 + 2) B = 176 (see
		// TestModuleFootprint): 336; the 100 payload bytes are the store's.
		const want = 8*4 + 8*ids.IDSize + 8*4 + 8*(ids.IDSize+2)
		if fp := f.mod.Footprint(); fp.Bytes != want || fp.Items != 2 {
			t.Errorf("module %d footprint = %+v, want %d bytes / 2 items", self, fp, want)
		}
		if round, ok := f.mod.cache.Get(id); !ok || round != 2 {
			t.Errorf("module %d cache holds round %d (present %v), want 2", self, round, ok)
		}
	}
	// The store: 8 index slots × 4 B + 8 entries × (16-byte ID + 24-byte
	// slice header + 8-byte holder count) = 416, plus the one 100-byte
	// payload: 516.
	const want = 8*4 + 8*(ids.IDSize+24+8) + 100
	if fp := store.Footprint(); fp.Bytes != want || fp.Items != 1 {
		t.Fatalf("store footprint = %+v, want one 100-byte payload (%d bytes)", fp, want)
	}
	// Each module holds it once: the first release leaves it kept.
	store.Release(id)
	if p, ok := store.Get(id); !ok || len(p) != 100 {
		t.Fatalf("after one of two releases the store holds %d bytes (present %v), want 100", len(p), ok)
	}
}

// TestCacheBytesTrackEviction pins the cached payload bytes a module on
// its private store reports through FIFO eviction: an evicted id's hold is
// released, and its payload stops being charged.
func TestCacheBytesTrackEviction(t *testing.T) {
	f := newFixture(t, 1, &strategy.Flat{P: 0}, Config{CacheCapacity: 2})
	for i := byte(1); i <= 4; i++ {
		f.mod.LSend(ids.ID{i}, make([]byte, int(i)*10), 1, 2)
	}
	// Capacity 2: ids 3 and 4 remain, 30+40 payload bytes. The cache's 8
	// index slots × 4 B + 8 entries × (16 + 2) B = 176 (see
	// TestModuleFootprint): its two evicted entries are dead, not freed,
	// until a compaction, and stay charged. The private store deleted
	// the released entries, so it never held more than 3 and keeps its
	// first 8 index slots × 4 B + 8 entries × (16 + 24 + 8) B = 416: 662
	// in all.
	const want = 8*4 + 8*(ids.IDSize+2) + 8*4 + 8*(ids.IDSize+24+8) + 70
	if fp := f.mod.Footprint(); fp.Bytes != want || fp.Items != 2 {
		t.Fatalf("footprint = %+v, want %d bytes / 2 items", fp, want)
	}
	for i := byte(1); i <= 4; i++ {
		if _, ok := f.mod.cache.Get(ids.ID{i}); ok != (i > 2) {
			t.Fatalf("id %d cached = %v, want %v", i, ok, i > 2)
		}
	}
	// A request for an evicted id is a miss, not a stale charge.
	f.mod.OnIWant(ids.ID{1}, 3)
	if got := len(f.framesOfKind(t, msg.KindMsg)); got != 0 {
		t.Fatalf("evicted id served %d payloads, want 0", got)
	}
}
