// Package ids provides probabilistically unique message identifiers and
// the one table that every protocol layer keys by them, as required by the
// gossip layer (paper §3.1) and the lazy point-to-point layer (paper §3.2).
//
// Identifiers are 128-bit random strings: the paper notes that identifiers
// "must be unique with high probability, as conflicts will cause deliveries
// to be omitted" and suggests exactly this construction.
//
// The table is written once. Map is one 4-byte index, open addressing
// over the identifier's first 8 bytes with one probe loop, over dense
// entry arrays; emptiness lives in the index, so the zero ID is an
// ordinary key. Bounded is a Map whose entry arrays are its FIFO, the
// age-based garbage collection that keeps known-message state from
// growing without bound (paper §3.1, referencing [5, 13]). Set is a
// Bounded without values.
package ids

import (
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"sync"
	"unsafe"
)

// IDSize is the size of a message identifier in bytes.
const IDSize = 16

// ID is a 128-bit probabilistically unique message identifier.
type ID [IDSize]byte

// String returns the hexadecimal form of the identifier.
func (id ID) String() string {
	return hex.EncodeToString(id[:])
}

// IsZero reports whether the identifier is the all-zero value. The zero
// identifier is reserved and never produced by a Generator.
func (id ID) IsZero() bool {
	return id == ID{}
}

// Generator produces unique identifiers from a seeded random stream. A
// deterministic seed yields a deterministic identifier sequence, which keeps
// whole-simulation runs reproducible. Generator is safe for concurrent use.
// Its stream is a 16-byte math/rand/v2 PCG seeded through Mix64, held in
// place, so a node that never multicasts pays 16 bytes for it.
type Generator struct {
	mu  sync.Mutex
	rng rand.PCG
	seq uint64
}

// NewGenerator returns a Generator seeded with seed.
func NewGenerator(seed int64) *Generator {
	g := &Generator{}
	h := Mix64(uint64(seed))
	g.rng.Seed(h, Mix64(h))
	return g
}

// Next returns a fresh identifier. The first 8 bytes are random and the last
// 8 bytes mix a random value with a strictly increasing sequence number, so
// identifiers from one generator never collide and identifiers from
// generators with distinct seeds collide only with probability ~2^-64.
func (g *Generator) Next() ID {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seq++
	var id ID
	binary.BigEndian.PutUint64(id[0:8], g.rng.Uint64())
	binary.BigEndian.PutUint64(id[8:16], g.rng.Uint64()^g.seq)
	if id.IsZero() { // reserve the zero value
		id[15] = 1
	}
	return id
}

// The table's layout constants, shared by every Map and Bounded:
//   - minTable is the first index's size, a power of two so that a probe
//     wraps with a mask, and the first entry arrays' capacity: a table
//     that holds anything soon holds that many.
//   - An index doubles when an insert would pass 3/4 load, so linear-probe
//     chains stay a slot or two long.
//   - A Bounded compacts once its dead prefix passes half its entries and
//     minCompact of them, so a compaction copies no more than it frees and
//     a small table never compacts.
const (
	minTable   = 8
	minCompact = 64
)

// fold is the table hash of an identifier. Identifiers are uniformly
// random, so their first 8 bytes are a ready-made high-quality hash that
// needs no further mixing.
func fold(id ID) uint64 {
	return binary.BigEndian.Uint64(id[0:8])
}

// Map is the ID-keyed table, laid out like CPython's compact dict: an
// index of 4-byte slots probed linearly from the fold, over dense key and
// value arrays. An index slot holds 0 when empty, otherwise its entry's
// position + 1, so any ID, the zero ID included, is an ordinary key. A
// lookup is index arithmetic, one 16-byte compare per probed slot and one
// entry read: no hashing, no per-entry allocation and no runtime map
// machinery. Every simulated frame consults one (the dedup check), which
// made this the hottest data structure in the 10k-node profile. A
// doubling rebuilds only the index: entries keep their positions, and the
// entry arrays grow by append. Delete shifts the index back over the
// vacated slot, so probe chains stay exact without tombstones, and moves
// the last entry into the hole. The zero value is an empty Map; NewMap
// presizes. Not safe for concurrent use.
type Map[V any] struct {
	index []uint32
	keys  []ID
	vals  []V
	// head is Bounded's FIFO head: keys[head:] and vals[head:] are the
	// entries. A Map never deletes from the front, so its head stays 0.
	head int
}

// NewMap returns an empty Map with space for hint entries.
func NewMap[V any](hint int) *Map[V] {
	m := &Map[V]{}
	if hint > 0 {
		m.alloc(hint)
	}
	return m
}

// alloc sizes an empty Map's index and entry arrays for n entries.
func (m *Map[V]) alloc(n int) {
	size := minTable
	for size*3 < n*4 {
		size *= 2
	}
	n = max(n, minTable)
	m.index, m.keys, m.vals = make([]uint32, size), make([]ID, 0, n), make([]V, 0, n)
}

// slot is the table's one probe loop. It walks the probe chain of id from
// its home slot in an allocated index, and returns the index slot that
// holds id and true, or the empty slot that ends the chain and false.
func (m *Map[V]) slot(id ID) (uint64, bool) {
	mask := uint64(len(m.index) - 1)
	i := fold(id) & mask
	for m.index[i] != 0 {
		if m.keys[m.index[i]-1] == id {
			return i, true
		}
		i = (i + 1) & mask
	}
	return i, false
}

// Get returns the value stored for id.
func (m *Map[V]) Get(id ID) (V, bool) {
	if m.index != nil {
		if i, ok := m.slot(id); ok {
			return m.vals[m.index[i]-1], true
		}
	}
	var zero V
	return zero, false
}

// ref returns a pointer to id's value, appending id with the zero value
// when it is absent, and reports whether it inserted. The pointer is
// valid until the next insert, which may grow the entry arrays.
func (m *Map[V]) ref(id ID) (*V, bool) {
	if m.index == nil {
		m.alloc(0)
	}
	i, ok := m.slot(id)
	if ok {
		return &m.vals[m.index[i]-1], false
	}
	if (m.Len()+1)*4 > len(m.index)*3 {
		m.reindex(2 * len(m.index))
		i, _ = m.slot(id)
	}
	var zero V
	m.keys, m.vals = append(m.keys, id), append(m.vals, zero)
	m.index[i] = uint32(len(m.keys))
	return &m.vals[len(m.vals)-1], true
}

// Put stores v for id, replacing any existing value.
func (m *Map[V]) Put(id ID, v V) {
	p, _ := m.ref(id)
	*p = v
}

// reindex replaces the index with an empty one of size slots and points
// it at every entry.
func (m *Map[V]) reindex(size int) {
	m.index = make([]uint32, size)
	for p := m.head; p < len(m.keys); p++ {
		i, _ := m.slot(m.keys[p])
		m.index[i] = uint32(p + 1)
	}
}

// unlink empties index slot i. The slots after it are shifted back into
// the gap when their entry's home slot lies cyclically outside it, so
// every surviving entry stays reachable from its home slot: no
// tombstones, no broken chains.
func (m *Map[V]) unlink(i uint64) {
	mask := uint64(len(m.index) - 1)
	for j := (i + 1) & mask; m.index[j] != 0; j = (j + 1) & mask {
		k := fold(m.keys[m.index[j]-1]) & mask
		if (j > i && (k <= i || k > j)) || (j < i && k <= i && k > j) {
			m.index[i] = m.index[j]
			i = j
		}
	}
	m.index[i] = 0
}

// Delete removes id's entry, if present: it unlinks id's index slot, then
// moves the last entry into the vacated position and repoints that
// entry's slot. The vacated last position is zeroed, so a deleted value
// holds nothing reachable.
func (m *Map[V]) Delete(id ID) {
	if m.index == nil {
		return
	}
	i, ok := m.slot(id)
	if !ok {
		return
	}
	p, last := m.index[i]-1, len(m.keys)-1
	m.unlink(i)
	if int(p) != last {
		m.keys[p], m.vals[p] = m.keys[last], m.vals[last]
		i, _ = m.slot(m.keys[p])
		m.index[i] = p + 1
	}
	var zero V
	m.keys[last], m.vals[last] = ID{}, zero
	m.keys, m.vals = m.keys[:last], m.vals[:last]
}

// Len returns the number of stored entries.
func (m *Map[V]) Len() int { return len(m.keys) - m.head }

// FootprintBytes estimates the retained bytes: 4 per index slot, empty
// slots included, plus the entry arrays' full capacity (a 16-byte ID plus
// one value per entry), dead and spare entries included, since the arrays
// are allocated whole. It is arithmetic over lengths and capacities, so
// accounting never perturbs a seeded run.
func (m *Map[V]) FootprintBytes() int64 {
	var v V
	return int64(len(m.index))*4 + int64(cap(m.keys))*IDSize +
		int64(cap(m.vals))*int64(unsafe.Sizeof(v))
}

// Range calls fn for every entry, in unspecified order (like ranging
// over a built-in map). fn must not mutate the Map.
func (m *Map[V]) Range(fn func(id ID, v V)) {
	for p := m.head; p < len(m.keys); p++ {
		fn(m.keys[p], m.vals[p])
	}
}

// Bounded is a Map whose entry arrays are a FIFO: once it holds more than
// its capacity, it evicts its oldest inserts. It is the paper's pruned ID
// state, the sets K and R and the payload cache C, which are pruned while
// active messages are retained with high probability (§3.1, §3.2). An
// entry is appended once and never replaced or deleted, so the entry
// arrays are in insertion order and an entry leaves only from their head;
// that is why Bounded has no Put and no Delete. A capacity of zero or
// less means unbounded. Not safe for concurrent use.
type Bounded[V any] struct {
	m        Map[V]
	capacity int
}

// NewBounded returns a table evicting its oldest entries beyond capacity.
func NewBounded[V any](capacity int) *Bounded[V] {
	return &Bounded[V]{capacity: capacity}
}

// Add stores v for id unless id is present, evicting the oldest entry
// once the insert passes capacity. It reports whether id was newly
// inserted and, when an entry was evicted (evicted is true), that entry's
// id, so that a caller can release what the entry stood for. An evicted
// entry is zeroed, so its value is released at once; the dead prefix is
// copied out, and the index rebuilt, once it passes the compaction rule.
func (b *Bounded[V]) Add(id ID, v V) (fresh bool, old ID, evicted bool) {
	p, fresh := b.m.ref(id)
	if !fresh {
		return false, ID{}, false
	}
	*p = v
	m := &b.m
	if b.capacity <= 0 || m.Len() <= b.capacity {
		return true, ID{}, false
	}
	// One insert passes the capacity by one entry, so one eviction
	// restores it.
	old = m.keys[m.head]
	i, _ := m.slot(old)
	m.unlink(i)
	var zero V
	m.keys[m.head], m.vals[m.head] = ID{}, zero
	m.head++
	if m.head > len(m.keys)/2 && m.head > minCompact {
		n := copy(m.keys, m.keys[m.head:])
		copy(m.vals, m.vals[m.head:])
		clear(m.vals[n:])
		m.keys, m.vals, m.head = m.keys[:n], m.vals[:n], 0
		m.reindex(len(m.index))
	}
	return true, old, true
}

// Get returns the value stored for id.
func (b *Bounded[V]) Get(id ID) (V, bool) { return b.m.Get(id) }

// Len returns the number of entries held.
func (b *Bounded[V]) Len() int { return b.m.Len() }

// Range calls fn for every entry, oldest first. fn must not mutate the
// table.
func (b *Bounded[V]) Range(fn func(id ID, v V)) { b.m.Range(fn) }

// FootprintBytes estimates the retained bytes, as Map.FootprintBytes
// does; the dead prefix is charged, since it is pinned until the next
// compaction.
func (b *Bounded[V]) FootprintBytes() int64 { return b.m.FootprintBytes() }

// Set is a Bounded of identifiers alone: the received set R that dedups
// payloads, and gossip's set of the node's own multicasts. Its values are
// empty structs, which take no space, so it costs its index and its keys.
type Set struct {
	Bounded[struct{}]
}

// NewSet returns a Set evicting its oldest entries beyond capacity. A
// capacity of zero or less means unbounded.
func NewSet(capacity int) *Set {
	return &Set{Bounded[struct{}]{capacity: capacity}}
}

// Add inserts id, evicting the oldest entries beyond capacity. It reports
// whether id was newly inserted.
func (s *Set) Add(id ID) bool {
	fresh, _, _ := s.Bounded.Add(id, struct{}{})
	return fresh
}

// Contains reports whether id is in the set.
func (s *Set) Contains(id ID) bool {
	_, ok := s.m.Get(id)
	return ok
}

// Mix64 is the splitmix64 finaliser: one step of the generator when fed
// its own output, and a stateless hash of x otherwise. The seeded draw
// streams that keep no generator (fault verdicts, backoff jitter, trace
// sampling) advance through it, and the PCG streams (Generator,
// peer.Stream, the emulator's loss draws) are seeded through it.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
