package ids

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// The table tests drive Map, Bounded and Set through operation programs,
// two bytes per operation (opcode, key index), and hold them to a Go map
// as the reference, plus a FIFO slice for the bounded tables.

// tablePool is the keys the programs draw from: the zero ID, then pairs of
// IDs that share a whole fold. The folds' low bytes sit at both ends of
// the table (0xff, 0xfe, 0xfd, 0x00, 0x01) and in two other places, so at
// every table size the programs reach, probe chains collide and wrap past
// the last slot. A short prefix of the pool stays in the first 8-slot
// table and already wraps.
var tablePool = func() []ID {
	lows := []uint64{0xff, 0xfe, 0x00, 0x01, 0x7f, 0xfd, 0x3c}
	pool := []ID{{}}
	for i := 0; len(pool) < poolSize; i++ {
		g := uint64(i / 2)
		var id ID
		binary.BigEndian.PutUint64(id[0:8], g<<8|lows[g%uint64(len(lows))])
		id[15] = byte(i%2 + 1)
		pool = append(pool, id)
	}
	return pool
}()

const poolSize = 97

// tableCapacities are the capacities every program runs Bounded and Set
// at: unbounded, a single entry, one past the first 8-slot table's 3/4
// load (so a full table has grown once), and enough for it to grow
// several times.
var tableCapacities = []int{0, 1, 7, 64}

// maxProgram caps a fuzzed program, so that one input stays fast.
const maxProgram = 1024

// op decodes operation k of prog.
func op(prog []byte, k int) (code byte, id ID) {
	return prog[k], tablePool[int(prog[k+1])%len(tablePool)]
}

// fullCheck reports whether the state after operation k is held to the
// reference in full, every pool key and Range: every 16th operation and
// the last. The others check the operated key and Len.
func fullCheck(prog []byte, k int) bool {
	return k/2%16 == 15 || k+3 >= len(prog)
}

// poolIndex maps a pool key to its index.
var poolIndex = func() map[ID]int {
	index := make(map[ID]int, len(tablePool))
	for i, id := range tablePool {
		index[id] = i
	}
	return index
}()

// checkMap runs prog against a Map: opcodes 0-3 Put the opcode as the
// value, 4-6 Delete, 7 only looks. After every operation Get and Len must
// match the reference (see fullCheck for which keys).
func checkMap(t *testing.T, prog []byte) {
	t.Helper()
	m := NewMap[int](0)
	ref := map[ID]int{}
	for k := 0; k+1 < len(prog); k += 2 {
		code, id := op(prog, k)
		switch code % 8 {
		case 0, 1, 2, 3:
			m.Put(id, int(code))
			ref[id] = int(code)
		case 4, 5, 6:
			m.Delete(id)
			delete(ref, id)
		}
		keys := []ID{id}
		if fullCheck(prog, k) {
			keys = tablePool
			checkRange(t, "Map", k, m.Range, ref)
		}
		for _, key := range keys {
			want, in := ref[key]
			if got, ok := m.Get(key); ok != in || got != want {
				t.Fatalf("Map op %d (%d on %v): Get(%v) = %d, %v; want %d, %v", k/2, code, id, key, got, ok, want, in)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("Map op %d: Len = %d, want %d", k/2, m.Len(), len(ref))
		}
	}
}

// checkBounded runs prog against a Bounded and a Set of one capacity:
// opcodes whose low two bits are not zero Add the opcode as the value, the
// rest only look. The reference evicts its oldest insert beyond capacity,
// and Add must report the id it evicted.
func checkBounded(t *testing.T, capacity int, prog []byte) {
	t.Helper()
	b := NewBounded[int](capacity)
	s := NewSet(capacity)
	ref := map[ID]int{}
	var fifo []ID
	for k := 0; k+1 < len(prog); k += 2 {
		code, id := op(prog, k)
		if code%4 != 0 {
			_, had := ref[id]
			got, old, evicted := b.Add(id, int(code))
			if got == had {
				t.Fatalf("capacity %d op %d: Bounded.Add(%v) = %v with the key present = %v", capacity, k/2, id, got, had)
			}
			if got := s.Add(id); got == had {
				t.Fatalf("capacity %d op %d: Set.Add(%v) = %v with the key present = %v", capacity, k/2, id, got, had)
			}
			var wantOld ID
			wantEvicted := false
			if !had {
				ref[id] = int(code)
				fifo = append(fifo, id)
				if capacity > 0 && len(fifo) > capacity {
					wantOld, wantEvicted = fifo[0], true
					delete(ref, fifo[0])
					fifo = fifo[1:]
				}
			}
			if old != wantOld || evicted != wantEvicted {
				t.Fatalf("capacity %d op %d: Bounded.Add(%v) evicted %v, %v; want %v, %v", capacity, k/2, id, old, evicted, wantOld, wantEvicted)
			}
		}
		keys := []ID{id}
		if fullCheck(prog, k) {
			keys = tablePool
			checkRange(t, "Bounded", k, b.Range, ref)
		}
		for _, key := range keys {
			want, in := ref[key]
			if got, ok := b.Get(key); ok != in || got != want {
				t.Fatalf("capacity %d op %d: Bounded.Get(%v) = %d, %v; want %d, %v", capacity, k/2, key, got, ok, want, in)
			}
			if s.Contains(key) != in {
				t.Fatalf("capacity %d op %d: Set.Contains(%v) = %v, want %v", capacity, k/2, key, !in, in)
			}
		}
		if b.Len() != len(ref) || s.Len() != len(ref) {
			t.Fatalf("capacity %d op %d: Len = %d (Bounded), %d (Set); want %d", capacity, k/2, b.Len(), s.Len(), len(ref))
		}
	}
}

// checkRange holds a table's Range to the reference: every entry once,
// with its value.
func checkRange(t *testing.T, table string, k int, rangeFn func(func(ID, int)), ref map[ID]int) {
	t.Helper()
	var seen [poolSize]bool
	n := 0
	rangeFn(func(id ID, v int) {
		i, inPool := poolIndex[id]
		if want, in := ref[id]; !in || v != want || !inPool || seen[i] {
			t.Fatalf("%s op %d: Range yields %v = %d (reference %d, %v; again %v)", table, k/2, id, v, want, in, inPool && seen[i])
		}
		seen[i] = true
		n++
	})
	if n != len(ref) {
		t.Fatalf("%s op %d: Range yields %d entries, want %d", table, k/2, n, len(ref))
	}
}

// TestTablesMatchReference runs seeded programs on every table. Each
// program draws its keys from a prefix of the pool: the short prefixes
// keep the table at 8 or 16 slots, where wrapped chains are dense, and the
// long ones grow it and, at capacity 64, evict and compact the FIFO.
func TestTablesMatchReference(t *testing.T) {
	prefixes := []int{4, 6, 12, 24, 48, len(tablePool)}
	for seed := int64(1); seed <= 36; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := prefixes[int(seed)%len(prefixes)]
		prog := make([]byte, 2*(200+rng.Intn(400)))
		for k := 0; k < len(prog); k += 2 {
			prog[k] = byte(rng.Intn(256))
			prog[k+1] = byte(rng.Intn(keys))
		}
		checkMap(t, prog)
		for _, c := range tableCapacities {
			checkBounded(t, c, prog)
		}
	}
}

// FuzzTables runs fuzzer-decoded programs on every table, at the
// capacity the fuzzer picks. The seed corpus is in testdata/fuzz.
func FuzzTables(f *testing.F) {
	f.Fuzz(func(t *testing.T, capacity uint8, prog []byte) {
		if len(prog) > maxProgram {
			prog = prog[:maxProgram]
		}
		checkMap(t, prog)
		checkBounded(t, int(capacity), prog)
	})
}
