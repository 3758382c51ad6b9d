package lazy

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"emcast/internal/ids"
	"emcast/internal/msg"
	"emcast/internal/peer"
	"emcast/internal/strategy"
)

// sameArray reports whether two non-empty slices share a backing array
// start.
func sameArray(a, b []byte) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) }

// TestPayloadsKeep pins the store's answers: the kept entry, with a hold
// taken, for equal bytes; a fresh copy the caller owns, with no hold, for
// other bytes under a kept id (the entry untouched); and a fresh entry
// once the last hold on the old one is released. No answer ever aliases
// the caller's buffer.
func TestPayloadsKeep(t *testing.T) {
	var store Payloads
	id := ids.ID{1}
	in := []byte("abc")
	kept, held := store.Keep(id, in)
	if string(kept) != "abc" || sameArray(kept, in) || !held {
		t.Fatalf("first Keep = %q aliasing input %v, held %v; want a held copy of %q", kept, sameArray(kept, in), held, "abc")
	}
	if again, held := store.Keep(id, []byte("abc")); !sameArray(again, kept) || !held {
		t.Fatal("equal bytes under one id did not hold the kept entry")
	}

	other, held := store.Keep(id, []byte("xyz"))
	if string(other) != "xyz" || sameArray(other, kept) || held {
		t.Fatalf("other bytes under a kept id = %q (shares entry: %v, held %v), want an unheld private %q", other, sameArray(other, kept), held, "xyz")
	}
	if got, ok := store.Get(id); string(kept) != "abc" || !ok || !sameArray(got, kept) {
		t.Fatal("a colliding Keep changed the kept entry")
	}

	// One payload per id: 8 index slots × 4 B + 8 entries × (16-byte id
	// + 24-byte slice header + 8-byte holder count) = 32 + 384 = 416, and
	// the 3 kept bytes; the private "xyz" copy is not the store's.
	const want = 8*4 + 8*(ids.IDSize+24+8) + 3
	if fp := store.Footprint(); fp.Subsystem != "lazy" || fp.Bytes != want || fp.Items != 1 {
		t.Fatalf("store footprint = %+v, want lazy/%d/1", fp, want)
	}

	// Two holds were taken; the entry goes with the second release, its
	// bytes uncharged, and the next Keep makes a new one.
	store.Release(id)
	if _, ok := store.Get(id); !ok {
		t.Fatal("the entry went with one of its two holds left")
	}
	store.Release(id)
	if _, ok := store.Get(id); ok {
		t.Fatal("the entry outlived its last hold")
	}
	if fp := store.Footprint(); fp.Bytes != 8*4+8*(ids.IDSize+24+8) || fp.Items != 0 {
		t.Fatalf("released store footprint = %+v, want its table alone", fp)
	}
	if fresh, held := store.Keep(id, in); !held || sameArray(fresh, kept) {
		t.Fatal("a Keep after the last release did not make a new entry")
	}
	if fp := (&Payloads{}).Footprint(); fp.Bytes != 0 || fp.Items != 0 {
		t.Fatalf("empty store footprint = %+v, want zero", fp)
	}
}

// TestKeptPayloadSurvivesFrameReuse: OnMsg's payload aliases a frame
// buffer the transport recycles once the handler returns, and the upcall
// is handed that view, not a copy. The one copy is the store's: with a
// private store and with a shared one alike, a lazy relay keeps the
// payload once for its whole fan-out, and a later IWANT answer carries
// the bytes received, not what the buffer holds by then. An eager relay
// keeps nothing.
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

// TestCollidingIDKeepsOwnCopy: two modules on one store cache one id with
// different bytes. The second's Keep does not share the entry: the module
// keeps its own copy in its private store, which answers its IWANTs and is
// charged to it, and its eviction releases that copy, not the store's
// entry.
func TestCollidingIDKeepsOwnCopy(t *testing.T) {
	store := &Payloads{}
	a := newFixture(t, 1, &strategy.Flat{P: 0}, Config{CacheCapacity: 1})
	b := newFixture(t, 2, &strategy.Flat{P: 0}, Config{CacheCapacity: 1})
	a.mod.SetPayloads(store)
	b.mod.SetPayloads(store)
	a.mod.LSend(testID, []byte("aaa"), 1, 3)
	b.mod.LSend(testID, []byte("bbbb"), 1, 3)
	for _, c := range []struct {
		f    *fixture
		want string
	}{{a, "aaa"}, {b, "bbbb"}} {
		c.f.mod.OnIWant(testID, 3)
		msgs := c.f.framesOfKind(t, msg.KindMsg)
		if len(msgs) != 1 || string(msgs[0].(*msg.Msg).Payload) != c.want {
			t.Fatalf("IWANT answered with %d frames, want one carrying %q", len(msgs), c.want)
		}
	}
	if fp := store.Footprint(); fp.Items != 1 {
		t.Fatalf("store keeps %d entries, want 1", fp.Items)
	}
	// b's cache and its own store, each at its first 8 index slots × 4 B +
	// 8 entries: of a 16-byte id and a 2-byte round, 176, and of a 16-byte
	// id, a 24-byte slice header and an 8-byte holder count, 416, plus the
	// 4 bytes of its copy.
	const want = 8*4 + 8*(ids.IDSize+2) + 8*4 + 8*(ids.IDSize+24+8) + 4
	if fp := b.mod.Footprint(); fp.Bytes != want {
		t.Fatalf("colliding module footprint = %d B, want %d", fp.Bytes, want)
	}

	b.mod.LSend(ids.ID{9}, []byte("c"), 1, 3) // evicts testID from b's cache
	if p, ok := store.Get(testID); !ok || string(p) != "aaa" {
		t.Fatalf("b's eviction left the store's entry %q (present %v), want %q", p, ok, "aaa")
	}
	if _, ok := b.mod.own.Get(testID); ok {
		t.Fatal("b's eviction kept its own copy")
	}
}

// The store's reference tests run operation programs, two bytes per
// operation (opcode, key index), over a pool of ids and a set of payloads
// per id, and hold the store after every step to a Go map of each id's
// kept bytes and holder count.

// payloadPool is the ids the programs draw from: pairs that share their
// first 8 bytes, the store table's hash, so that probe chains collide.
var payloadPool = func() []ids.ID {
	pool := make([]ids.ID, 12)
	for i := range pool {
		binary.BigEndian.PutUint64(pool[i][0:8], uint64(i/2)<<8|0xff)
		pool[i][15] = byte(i%2 + 1)
	}
	return pool
}()

// payloadVariants are the bytes a Keep may carry: equal bytes share an
// entry, the others collide with it.
var payloadVariants = [][]byte{[]byte("abc"), []byte("xyz"), {}, []byte("abcd")}

// refEntry is the reference's view of one entry.
type refEntry struct {
	payload []byte
	holders int
}

// checkPayloads runs prog against a store: opcodes 0 mod 3 Keep the
// opcode's variant, 1 mod 3 Release, 2 mod 3 only look. After every
// operation every pool id's entry, the entry count and the kept bytes are
// held to the reference, and so is what each Keep returned.
func checkPayloads(t *testing.T, prog []byte) {
	t.Helper()
	var store Payloads
	ref := map[ids.ID]*refEntry{}
	for k := 0; k+1 < len(prog); k += 2 {
		code := prog[k]
		id := payloadPool[int(prog[k+1])%len(payloadPool)]
		e := ref[id]
		switch code % 3 {
		case 0:
			in := append([]byte(nil), payloadVariants[int(code/3)%len(payloadVariants)]...)
			kept, held := store.Keep(id, in)
			wantHeld := e == nil || bytes.Equal(e.payload, in)
			if held != wantHeld || !bytes.Equal(kept, in) {
				t.Fatalf("op %d: Keep(%v, %q) = %q, held %v; want %q, held %v", k/2, id, in, kept, held, in, wantHeld)
			}
			if len(in) > 0 && sameArray(kept, in) {
				t.Fatalf("op %d: Keep(%v) returned the caller's buffer", k/2, id)
			}
			if entry, _ := store.Get(id); len(kept) > 0 && sameArray(kept, entry) != held {
				t.Fatalf("op %d: Keep(%v) held %v, returned the entry's bytes %v; want both or neither", k/2, id, held, !held)
			}
			switch {
			case e == nil:
				ref[id] = &refEntry{payload: in, holders: 1}
			case held:
				e.holders++
			}
		case 1:
			store.Release(id)
			if e != nil {
				if e.holders--; e.holders == 0 {
					delete(ref, id)
				}
			}
		}
		var keptBytes int64
		for _, id := range payloadPool {
			e := ref[id]
			got, ok := store.Get(id)
			if ok != (e != nil) || e != nil && !bytes.Equal(got, e.payload) {
				t.Fatalf("op %d: Get(%v) = %q, %v; want the reference's %+v", k/2, id, got, ok, e)
			}
			if e != nil {
				keptBytes += int64(len(e.payload))
			}
		}
		if fp := store.Footprint(); fp.Items != int64(len(ref)) || store.bytes != keptBytes {
			t.Fatalf("op %d: store has %d entries of %d bytes; want %d of %d", k/2, fp.Items, store.bytes, len(ref), keptBytes)
		}
	}
}

// TestPayloadsMatchReference runs seeded programs over a short prefix of
// the pool, where holds pile up and collide, and over all of it; then it
// shows that a fully released entry's bytes can be collected.
func TestPayloadsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := []int{2, 5, len(payloadPool)}[seed%3]
		prog := make([]byte, 2*(100+rng.Intn(300)))
		for k := 0; k < len(prog); k += 2 {
			prog[k] = byte(rng.Intn(256))
			prog[k+1] = byte(rng.Intn(keys))
		}
		checkPayloads(t, prog)
	}
	checkReleasedCollectable(t)
}

// FuzzPayloads runs fuzzer-decoded programs against the reference. The
// seed corpus is in testdata/fuzz.
func FuzzPayloads(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			prog = prog[:1024]
		}
		checkPayloads(t, prog)
	})
}

// checkReleasedCollectable: once its last hold is released, nothing in
// the store keeps an entry's bytes reachable, while a held entry's stay.
func checkReleasedCollectable(t *testing.T) {
	t.Helper()
	var store Payloads
	id := ids.ID{7}
	other := ids.ID{8}
	keep := func(id ids.ID) weak.Pointer[byte] {
		kept, _ := store.Keep(id, make([]byte, 1<<10))
		return weak.Make(&kept[0])
	}
	wp := keep(id)
	keep(id)
	otherWP := keep(other) // a live entry after it, moved into its slot
	store.Release(id)
	runtime.GC()
	if wp.Value() == nil {
		t.Fatal("an entry's bytes were collected with a hold left")
	}
	store.Release(id)
	runtime.GC()
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("a fully released entry's bytes are still reachable")
	}
	if otherWP.Value() == nil {
		t.Fatal("a held entry's bytes were collected")
	}
	runtime.KeepAlive(&store)
}
