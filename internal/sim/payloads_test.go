package sim_test

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"emcast/internal/ids"
	"emcast/internal/peer"
	"emcast/internal/sim"
)

// TestNodesShareOnePayloadPerMessage guards against per-node payload
// copies coming back. On a 200-node lazy run every node — the origin
// included — delivers a message's payload as the one slice the run's store
// keeps for it; the gossip layer caches and forwards that same slice, so
// the payload caches of all nodes hold one copy of each message between
// them.
func TestNodesShareOnePayloadPerMessage(t *testing.T) {
	const nodes, messages = 200, 5
	cfg := testConfig(nodes)
	cfg.Strategy = "lazy" // every hop caches the payload
	delivered := make(map[ids.ID][][]byte)
	cfg.OnDeliver = func(_ peer.ID, id ids.ID, payload []byte) {
		delivered[id] = append(delivered[id], payload)
	}
	r := sim.New(cfg)
	r.Warmup()
	rng := rand.New(rand.NewSource(7))
	sent := make([]ids.ID, messages)
	for i := range sent {
		payload := make([]byte, 256)
		rng.Read(payload)
		sent[i] = r.MulticastFrom(i*nodes/messages, payload)
		payload[0]++ // the origin's buffer is the caller's to reuse
		r.RunFor(500 * time.Millisecond)
	}
	r.RunFor(20 * time.Second)

	for _, id := range sent {
		got := delivered[id]
		if len(got) != nodes {
			t.Fatalf("message %v delivered at %d nodes, want %d", id, len(got), nodes)
		}
		kept, _ := r.Payloads().Get(id)
		for i, p := range got {
			if unsafe.SliceData(p) != unsafe.SliceData(kept) {
				t.Fatalf("message %v: delivery %d holds its own copy, not the store's", id, i)
			}
		}
	}
	if cp := r.Checkpoint(); cp.LazyPayloads == 0 || cp.EagerPayloads != 0 {
		t.Fatalf("lazy run sent %d lazy and %d eager payloads, want only lazy ones", cp.LazyPayloads, cp.EagerPayloads)
	}
	if fp := r.Payloads().Footprint(); fp.Items != messages {
		t.Fatalf("store keeps %d payloads, want one per message (%d)", fp.Items, messages)
	}
}

// TestLazyFootprintCountsPayloadsOnce: the lazy line of Runner.Footprints
// is the nodes' own structures plus the store, and the store holds one
// payload per message.
func TestLazyFootprintCountsPayloadsOnce(t *testing.T) {
	const messages = 10
	r, _ := play(t, testSpec(100, messages, "lazy"))
	var perNode, perNodeItems int64
	for _, n := range r.Nodes() {
		for _, fp := range n.Footprints() {
			if fp.Subsystem == "lazy" {
				perNode += fp.Bytes
				perNodeItems += fp.Items
			}
		}
	}
	store := r.Payloads().Footprint()
	// Ten ids fill a 16-slot index (load at most 3/4) of 4-byte slots, and
	// the entry arrays, first 8 long, have doubled once to 16 entries of
	// 16-byte ids, slice headers and 8-byte holder counts: 16 × 4 + 16 ×
	// (16 + 24 + 8) = 832. No cache evicts, so every entry is still held.
	// The Spec's payloads are 256 bytes.
	if want := int64(16*4 + 16*(ids.IDSize+24+8) + messages*256); store.Bytes != want || store.Items != messages {
		t.Fatalf("store footprint = %+v, want %d bytes / %d items", store, want, messages)
	}
	for _, fp := range r.Footprints() {
		if fp.Subsystem != "lazy" {
			continue
		}
		if fp.Bytes != perNode+store.Bytes || fp.Items != perNodeItems+store.Items {
			t.Fatalf("lazy footprint = %d bytes / %d items, want nodes %d + store %d bytes, %d + %d items",
				fp.Bytes, fp.Items, perNode, store.Bytes, perNodeItems, store.Items)
		}
		return
	}
	t.Fatal("Footprints has no lazy line")
}
