package lazy

import (
	"testing"
	"unsafe"

	"emcast/internal/ids"
	"emcast/internal/msg"
	"emcast/internal/peer"
	"emcast/internal/strategy"
)

// sameArray reports whether two non-empty slices share a backing array
// start.
func sameArray(a, b []byte) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) }

// TestPayloadsKeep pins the store's three answers: the kept entry for
// equal bytes, a private copy for other bytes under a kept id (the entry
// untouched), and — from a nil store — a fresh copy every time. No answer
// ever aliases the caller's buffer.
func TestPayloadsKeep(t *testing.T) {
	var store Payloads
	id := ids.ID{1}
	in := []byte("abc")
	kept := store.Keep(id, in)
	if string(kept) != "abc" || sameArray(kept, in) {
		t.Fatalf("first Keep = %q aliasing input %v, want a copy of %q", kept, sameArray(kept, in), "abc")
	}
	if again := store.Keep(id, []byte("abc")); !sameArray(again, kept) {
		t.Fatal("equal bytes under one id did not return the kept entry")
	}

	other := store.Keep(id, []byte("xyz"))
	if string(other) != "xyz" || sameArray(other, kept) {
		t.Fatalf("other bytes under a kept id = %q (shares entry: %v), want a private %q", other, sameArray(other, kept), "xyz")
	}
	if string(kept) != "abc" || !sameArray(store.Keep(id, []byte("abc")), kept) {
		t.Fatal("a colliding Keep changed the kept entry")
	}

	var none *Payloads
	a, b := none.Keep(id, in), none.Keep(id, in)
	if string(a) != "abc" || sameArray(a, in) || sameArray(a, b) {
		t.Fatal("a nil store aliased its input or shared a copy")
	}

	// One payload per id: 8 index slots × 4 B + 8 entries × (16-byte id
	// + slice header) and the 3 kept bytes; the private "xyz" copy is not
	// the store's.
	const want = 8*4 + 8*(ids.IDSize+24) + 3
	if fp := store.Footprint(); fp.Subsystem != "lazy" || fp.Bytes != want || fp.Items != 1 {
		t.Fatalf("store footprint = %+v, want lazy/%d/1", fp, want)
	}
	if fp := (&Payloads{}).Footprint(); fp.Bytes != 0 || fp.Items != 0 {
		t.Fatalf("empty store footprint = %+v, want zero", fp)
	}
}

// TestKeptPayloadSurvivesFrameReuse: OnMsg's payload aliases a frame
// buffer the transport recycles once the handler returns, and the upcall
// is handed that view, not a copy. The one copy is the payload cache's:
// with a private copy and with a shared store alike, a lazy relay keeps
// the payload into C once for its whole fan-out, and a later IWANT answer
// from C carries the bytes received, not what the buffer holds by then.
// An eager relay keeps nothing.
func TestKeptPayloadSurvivesFrameReuse(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store *Payloads
		p     float64 // Flat's eager probability: 0 relays lazily, 1 eagerly
	}{{"private", nil, 0}, {"shared", &Payloads{}, 0}, {"eager", &Payloads{}, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, 1, &strategy.Flat{P: tc.p}, Config{})
			f.mod.SetPayloads(tc.store)
			frame := []byte("payload")
			f.mod.SetReceiver(receiverFunc(func(id ids.ID, payload []byte, round int, _ peer.ID) {
				if !sameArray(payload, frame) {
					t.Error("the upcall got a copy, want the frame's view")
				}
				for _, to := range []peer.ID{2, 3} { // one fan-out
					f.mod.LSend(id, payload, round+1, to)
				}
			}))
			f.mod.OnMsg(testID, frame, 1, 9)
			copy(frame, "garbage")

			if tc.p == 1 {
				if fp := tc.store.Footprint(); fp.Items != 0 {
					t.Fatalf("eager relay kept %d payloads, want 0", fp.Items)
				}
				msgs := f.framesOfKind(t, msg.KindMsg)
				if len(msgs) != 2 {
					t.Fatalf("eager fan-out sent %d MSG frames, want 2", len(msgs))
				}
				for _, m := range msgs {
					if got := string(m.(*msg.Msg).Payload); got != "payload" {
						t.Fatalf("eager push carries %q, want %q", got, "payload")
					}
				}
				return
			}
			if tc.store != nil {
				if fp := tc.store.Footprint(); fp.Items != 1 {
					t.Fatalf("lazy fan-out kept %d payloads, want 1", fp.Items)
				}
			}
			f.mod.OnIWant(testID, 2)
			msgs := f.framesOfKind(t, msg.KindMsg)
			if len(msgs) != 1 {
				t.Fatalf("IWANT answered with %d MSG frames, want 1", len(msgs))
			}
			if got := string(msgs[0].(*msg.Msg).Payload); got != "payload" {
				t.Fatalf("IWANT answer carries %q, want %q", got, "payload")
			}
		})
	}
}
