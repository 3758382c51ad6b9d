// Package ids provides probabilistically unique message identifiers and
// the one table that every protocol layer keys by them, as required by the
// gossip layer (paper §3.1) and the lazy point-to-point layer (paper §3.2).
//
// Identifiers are 128-bit random strings: the paper notes that identifiers
// "must be unique with high probability, as conflicts will cause deliveries
// to be omitted" and suggests exactly this construction.
//
// The table is written once. Map is open addressing over the identifier's
// first 8 bytes, with one probe loop. Bounded is a Map plus one FIFO, the
// age-based garbage collection that keeps known-message state from
// growing without bound (paper §3.1, referencing [5, 13]). Set is a
// Bounded without values.
package ids

import (
	"encoding/binary"
	"encoding/hex"
	"math/rand"
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
//
// The random source is seeded by the first Next, not by NewGenerator: every
// node owns a generator but only the few that multicast ever draw from it,
// and a math/rand source is 5 KB and microseconds of seeding.
type Generator struct {
	mu   sync.Mutex
	seed int64
	rng  *rand.Rand // nil until the first Next
	seq  uint64
}

// NewGenerator returns a Generator seeded with seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{seed: seed}
}

// Next returns a fresh identifier. The first 8 bytes are random and the last
// 8 bytes mix a random value with a strictly increasing sequence number, so
// identifiers from one generator never collide and identifiers from
// generators with distinct seeds collide only with probability ~2^-64.
func (g *Generator) Next() ID {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(g.seed))
	}
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
//   - minTable is the first table's size, a power of two so that a probe
//     wraps with a mask. Eight 16-byte keys are two cache lines, and a
//     table that holds anything soon holds that many.
//   - A table doubles when an insert would pass 3/4 load, so linear-probe
//     chains stay a slot or two long.
//   - A Bounded FIFO starts at minTable entries too: its first doublings
//     would each allocate.
//   - It compacts once its dead prefix passes half its length and
//     minCompact entries, so a compaction copies no more than it frees and
//     a small FIFO never compacts.
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

// Map is the ID-keyed table: parallel key and value arrays probed
// linearly from the fold, with the reserved all-zero ID marking empty
// slots (a caller's deliberate zero-ID entry is kept in side fields, so
// semantics stay exact for every input). A lookup is index arithmetic plus
// 16-byte compares on one or two cache lines: no hashing, no per-entry
// allocation and no runtime map machinery. Every simulated frame consults
// one (the dedup check), which made this the hottest data structure in
// the 10k-node profile. Removal uses backward-shift deletion, so probe
// chains stay exact without tombstones. The zero value is an empty Map;
// NewMap presizes. Not safe for concurrent use.
type Map[V any] struct {
	keys []ID
	vals []V
	// count is an int32 so that it shares a word with hasZero: a node
	// holds two Sets and a Bounded cache, and the saved word keeps each in
	// a smaller allocation size class.
	count   int32
	hasZero bool
	zeroV   V
}

// NewMap returns an empty Map with space for hint entries.
func NewMap[V any](hint int) *Map[V] {
	m := &Map[V]{}
	if hint > 0 {
		size := minTable
		for size*3 < hint*4 {
			size *= 2
		}
		m.keys = make([]ID, size)
		m.vals = make([]V, size)
	}
	return m
}

// slot is the table's one probe loop. It walks the probe chain of id,
// which must not be zero, from its home slot in an allocated table, and
// returns id's index and true, or the index of the empty slot that ends
// the chain and false.
func (m *Map[V]) slot(id ID) (uint64, bool) {
	mask := uint64(len(m.keys) - 1)
	i := fold(id) & mask
	for !m.keys[i].IsZero() {
		if m.keys[i] == id {
			return i, true
		}
		i = (i + 1) & mask
	}
	return i, false
}

// Get returns the value stored for id.
func (m *Map[V]) Get(id ID) (V, bool) {
	if id.IsZero() {
		return m.zeroV, m.hasZero
	}
	if m.keys != nil {
		if i, ok := m.slot(id); ok {
			return m.vals[i], true
		}
	}
	var zero V
	return zero, false
}

// ref returns a pointer to id's value, inserting id with the zero value
// when it is absent, and reports whether it inserted. The pointer is
// valid until the next insert, which may grow the table.
func (m *Map[V]) ref(id ID) (*V, bool) {
	if id.IsZero() {
		fresh := !m.hasZero
		m.hasZero = true
		return &m.zeroV, fresh
	}
	if m.keys == nil {
		m.keys = make([]ID, minTable)
		m.vals = make([]V, minTable)
	}
	i, ok := m.slot(id)
	if ok {
		return &m.vals[i], false
	}
	if int(m.count+1)*4 > len(m.keys)*3 {
		m.grow()
		i, _ = m.slot(id)
	}
	m.keys[i] = id
	m.count++
	return &m.vals[i], true
}

// Put stores v for id, replacing any existing value.
func (m *Map[V]) Put(id ID, v V) {
	p, _ := m.ref(id)
	*p = v
}

func (m *Map[V]) grow() {
	oldKeys, oldVals := m.keys, m.vals
	m.keys = make([]ID, 2*len(oldKeys))
	m.vals = make([]V, 2*len(oldVals))
	for j, id := range oldKeys {
		if !id.IsZero() {
			i, _ := m.slot(id)
			m.keys[i], m.vals[i] = id, oldVals[j]
		}
	}
}

// Delete removes id's entry, if present. The entries after the vacated
// slot are shifted back into it when their home slot lies cyclically
// outside the gap, so every surviving entry stays reachable from its home
// slot: no tombstones, no broken chains.
func (m *Map[V]) Delete(id ID) {
	var zero V
	if id.IsZero() {
		m.zeroV, m.hasZero = zero, false
		return
	}
	if m.keys == nil {
		return
	}
	i, ok := m.slot(id)
	if !ok {
		return
	}
	mask := uint64(len(m.keys) - 1)
	for j := (i + 1) & mask; !m.keys[j].IsZero(); j = (j + 1) & mask {
		k := fold(m.keys[j]) & mask
		if (j > i && (k <= i || k > j)) || (j < i && k <= i && k > j) {
			m.keys[i], m.vals[i] = m.keys[j], m.vals[j]
			i = j
		}
	}
	m.keys[i], m.vals[i] = ID{}, zero
	m.count--
}

// Len returns the number of stored entries.
func (m *Map[V]) Len() int {
	n := int(m.count)
	if m.hasZero {
		n++
	}
	return n
}

// TableLen returns the allocated open-addressing table size (zero before
// the first insert) — the Footprint accounting numerator: each slot holds
// one 16-byte ID plus one value, empty slots included.
func (m *Map[V]) TableLen() int { return len(m.keys) }

// Range calls fn for every entry, in unspecified order (like ranging
// over a built-in map). fn must not mutate the Map.
func (m *Map[V]) Range(fn func(id ID, v V)) {
	for i, id := range m.keys {
		if !id.IsZero() {
			fn(id, m.vals[i])
		}
	}
	if m.hasZero {
		fn(ID{}, m.zeroV)
	}
}

// Bounded is a Map with one FIFO on top: once it holds more than its
// capacity, it evicts its oldest inserts. It is the paper's pruned ID
// state, the sets K and R and the payload cache C, which are pruned while
// active messages are retained with high probability (§3.1, §3.2). An
// entry is added once and never replaced or deleted, so the FIFO of
// insertion order is exact and an entry leaves the table only from the
// FIFO's head; that is why Bounded has no Put and no Delete. A capacity of
// zero or less means unbounded. Not safe for concurrent use.
type Bounded[V any] struct {
	m        Map[V]
	capacity int
	// order is the FIFO: order[head:] are the entries, oldest first.
	order []ID
	head  int
}

// NewBounded returns a table evicting its oldest entries beyond capacity.
func NewBounded[V any](capacity int) *Bounded[V] {
	return &Bounded[V]{capacity: capacity}
}

// Add stores v for id unless id is present, evicting the oldest entries
// beyond capacity. It reports whether id was newly inserted.
func (b *Bounded[V]) Add(id ID, v V) bool {
	p, fresh := b.m.ref(id)
	if !fresh {
		return false
	}
	*p = v
	if b.order == nil {
		b.order = make([]ID, 0, minTable)
	}
	b.order = append(b.order, id)
	if b.capacity <= 0 {
		return true
	}
	for b.m.Len() > b.capacity {
		b.m.Delete(b.order[b.head])
		b.order[b.head] = ID{}
		b.head++
	}
	if b.head > len(b.order)/2 && b.head > minCompact {
		b.order = append(b.order[:0], b.order[b.head:]...)
		b.head = 0
	}
	return true
}

// Get returns the value stored for id.
func (b *Bounded[V]) Get(id ID) (V, bool) { return b.m.Get(id) }

// Len returns the number of entries held.
func (b *Bounded[V]) Len() int { return b.m.Len() }

// Range calls fn for every entry, in unspecified order. fn must not
// mutate the table.
func (b *Bounded[V]) Range(fn func(id ID, v V)) { b.m.Range(fn) }

// FootprintBytes estimates the retained bytes: the whole table (a 16-byte
// ID plus one value per slot, empty slots included, since the table is
// allocated whole) and the FIFO's full capacity, dead prefix included,
// since that memory is pinned until the next compaction. It is arithmetic
// over lengths and capacities, so accounting never perturbs a seeded run.
func (b *Bounded[V]) FootprintBytes() int64 {
	var v V
	return int64(b.m.TableLen())*(IDSize+int64(unsafe.Sizeof(v))) +
		int64(cap(b.order))*IDSize
}

// Set is a Bounded of identifiers alone: the received set R that dedups
// payloads, and gossip's set of the node's own multicasts. Its values are
// empty structs, which take no space, so its table costs what one of bare
// IDs does.
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
func (s *Set) Add(id ID) bool { return s.Bounded.Add(id, struct{}{}) }

// Contains reports whether id is in the set.
func (s *Set) Contains(id ID) bool {
	_, ok := s.m.Get(id)
	return ok
}

// Mix64 is the splitmix64 finaliser: one step of the generator when fed
// its own output, and a stateless hash of x otherwise. The seeded draw
// streams outside math/rand (fault verdicts, backoff jitter, trace
// sampling) all advance through it.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
