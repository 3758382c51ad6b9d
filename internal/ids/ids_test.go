package ids

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestGeneratorUnique(t *testing.T) {
	g := NewGenerator(1)
	seen := make(map[ID]bool)
	for i := 0; i < 100000; i++ {
		id := g.Next()
		if seen[id] {
			t.Fatalf("duplicate id after %d draws: %v", i, id)
		}
		seen[id] = true
	}
}

func TestGeneratorNeverZero(t *testing.T) {
	g := NewGenerator(0)
	for i := 0; i < 10000; i++ {
		if g.Next().IsZero() {
			t.Fatal("generator produced the reserved zero id")
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a, b := NewGenerator(7), NewGenerator(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := NewGenerator(8)
	if NewGenerator(7).Next() == c.Next() {
		t.Fatal("different seeds produced the same first id")
	}
}

// TestGeneratorStream pins the generator's stream: an id is two draws of
// a math/rand/v2 PCG seeded through Mix64, the second mixed with the
// sequence number. The PCG is held in place, so a generator is its own 32
// bytes (mutex, 16-byte PCG, sequence) and retains nothing else, drawn
// from or not.
func TestGeneratorStream(t *testing.T) {
	if size := unsafe.Sizeof(Generator{}); size != 32 {
		t.Fatalf("Generator is %d B, want 32", size)
	}
	for _, seed := range []int64{0, 1, 7, -3, 1 << 40} {
		g := NewGenerator(seed)
		h := Mix64(uint64(seed))
		ref := rand.NewPCG(h, Mix64(h))
		for seq := uint64(1); seq <= 50; seq++ {
			var want ID
			binary.BigEndian.PutUint64(want[0:8], ref.Uint64())
			binary.BigEndian.PutUint64(want[8:16], ref.Uint64()^seq)
			if got := g.Next(); got != want {
				t.Fatalf("seed %d, id %d = %v, the seeded PCG gives %v", seed, seq, got, want)
			}
		}
	}
}

// TestCrossGeneratorCollisions property-checks that two generators with
// distinct seeds do not collide over substantial draws.
func TestCrossGeneratorCollisions(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		if seedA == seedB {
			return true
		}
		a, b := NewGenerator(seedA), NewGenerator(seedB)
		seen := make(map[ID]bool, 200)
		for i := 0; i < 100; i++ {
			seen[a.Next()] = true
		}
		for i := 0; i < 100; i++ {
			if seen[b.Next()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestIDString(t *testing.T) {
	var id ID
	id[0] = 0xAB
	id[15] = 0x01
	got := id.String()
	if len(got) != 32 {
		t.Fatalf("String() length = %d, want 32", len(got))
	}
	if got != "ab000000000000000000000000000001" {
		t.Fatalf("String() = %q", got)
	}
}

func TestSetAddContains(t *testing.T) {
	s := NewSet(0) // unbounded
	g := NewGenerator(1)
	var all []ID
	for i := 0; i < 1000; i++ {
		id := g.Next()
		all = append(all, id)
		if !s.Add(id) {
			t.Fatal("fresh id reported as duplicate")
		}
		if s.Add(id) {
			t.Fatal("duplicate id reported as fresh")
		}
	}
	for _, id := range all {
		if !s.Contains(id) {
			t.Fatal("unbounded set lost an id")
		}
	}
	if s.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", s.Len())
	}
}

func TestSetEvictsOldestFirst(t *testing.T) {
	s := NewSet(10)
	g := NewGenerator(2)
	ids := make([]ID, 25)
	for i := range ids {
		ids[i] = g.Next()
		s.Add(ids[i])
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want capacity 10", s.Len())
	}
	for i := 0; i < 15; i++ {
		if s.Contains(ids[i]) {
			t.Fatalf("old id %d still present", i)
		}
	}
	for i := 15; i < 25; i++ {
		if !s.Contains(ids[i]) {
			t.Fatalf("recent id %d evicted", i)
		}
	}
}

func TestSetCompaction(t *testing.T) {
	// Force many evictions so the entry arrays compact; the observable
	// behaviour (recent ids retained) must be unaffected.
	s := NewSet(64)
	g := NewGenerator(3)
	var recent []ID
	for i := 0; i < 10000; i++ {
		id := g.Next()
		s.Add(id)
		recent = append(recent, id)
		if len(recent) > 64 {
			recent = recent[1:]
		}
	}
	for i, id := range recent {
		if !s.Contains(id) {
			t.Fatalf("recent id %d missing after compaction", i)
		}
	}
	if s.Len() != 64 {
		t.Fatalf("Len = %d, want 64", s.Len())
	}
}

// TestSetQuickAddImpliesContains property-checks the basic set contract.
func TestSetQuickAddImpliesContains(t *testing.T) {
	f := func(raw [][16]byte) bool {
		s := NewSet(0)
		for _, r := range raw {
			id := ID(r)
			s.Add(id)
			if !s.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetCapacityOne(t *testing.T) {
	s := NewSet(1)
	g := NewGenerator(4)
	prev := g.Next()
	s.Add(prev)
	for i := 0; i < 100; i++ {
		id := g.Next()
		s.Add(id)
		if s.Contains(prev) {
			t.Fatal("capacity-1 set kept an older id")
		}
		if !s.Contains(id) {
			t.Fatal("capacity-1 set lost the newest id")
		}
		prev = id
	}
}
