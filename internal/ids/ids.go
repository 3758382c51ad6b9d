// Package ids provides probabilistically unique message identifiers and
// bounded identifier sets, as required by the gossip layer (paper §3.1) and
// the lazy point-to-point layer (paper §3.2).
//
// Identifiers are 128-bit random strings: the paper notes that identifiers
// "must be unique with high probability, as conflicts will cause deliveries
// to be omitted" and suggests exactly this construction. Sets support
// age-based garbage collection so that known-message state does not grow
// without bound (paper §3.1, referencing [5, 13]).
package ids

import (
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sync"
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

// Fold compresses an identifier to the 8-byte map key used by Map and
// Set. Identifiers are uniformly random, so their first 8 bytes are a
// ready-made high-quality hash: keying Go maps by the fold takes the
// runtime's fast integer-map path instead of hashing and comparing full
// 16-byte keys — a measurable share of hot-loop CPU, since every gossip
// frame consults several ID-keyed structures. Distinct IDs sharing a
// fold are handled exactly via a tiny overflow map, so folding is a pure
// optimisation, never a semantic change.
func Fold(id ID) uint64 {
	return binary.BigEndian.Uint64(id[0:8])
}

// Map is an ID-keyed map on the same open-addressing layout as Set:
// parallel key and value arrays probed linearly from the fold, with the
// reserved all-zero ID marking empty slots (a caller's deliberate zero-ID
// entry is tracked in side fields, so semantics stay exact for every
// input). Lookups are index arithmetic plus 16-byte compares — no
// hashing, no runtime map machinery — and removal uses backward-shift
// deletion, so probe chains stay exact without tombstones. The zero
// value is not ready for use; call NewMap. Not safe for concurrent use.
type Map[V any] struct {
	keys    []ID
	vals    []V
	count   int
	hasZero bool
	zeroV   V
}

// NewMap returns an empty Map with space for hint entries.
func NewMap[V any](hint int) *Map[V] {
	m := &Map[V]{}
	if hint > 0 {
		size := setMinTable
		for size*3 < hint*4 {
			size *= 2
		}
		m.keys = make([]ID, size)
		m.vals = make([]V, size)
	}
	return m
}

// Get returns the value stored for id.
func (m *Map[V]) Get(id ID) (V, bool) {
	if id.IsZero() {
		return m.zeroV, m.hasZero
	}
	if m.keys == nil {
		var zero V
		return zero, false
	}
	mask := uint64(len(m.keys) - 1)
	i := Fold(id) & mask
	for !m.keys[i].IsZero() {
		if m.keys[i] == id {
			return m.vals[i], true
		}
		i = (i + 1) & mask
	}
	var zero V
	return zero, false
}

// Put stores v for id, replacing any existing value.
func (m *Map[V]) Put(id ID, v V) {
	if id.IsZero() {
		m.zeroV, m.hasZero = v, true
		return
	}
	if m.keys == nil {
		m.keys = make([]ID, setMinTable)
		m.vals = make([]V, setMinTable)
	}
	mask := uint64(len(m.keys) - 1)
	i := Fold(id) & mask
	for !m.keys[i].IsZero() {
		if m.keys[i] == id {
			m.vals[i] = v
			return
		}
		i = (i + 1) & mask
	}
	if (m.count+1)*4 > len(m.keys)*3 {
		m.grow()
		mask = uint64(len(m.keys) - 1)
		i = Fold(id) & mask
		for !m.keys[i].IsZero() {
			i = (i + 1) & mask
		}
	}
	m.keys[i] = id
	m.vals[i] = v
	m.count++
}

func (m *Map[V]) grow() {
	oldKeys, oldVals := m.keys, m.vals
	m.keys = make([]ID, 2*len(oldKeys))
	m.vals = make([]V, 2*len(oldVals))
	mask := uint64(len(m.keys) - 1)
	for j, id := range oldKeys {
		if id.IsZero() {
			continue
		}
		i := Fold(id) & mask
		for !m.keys[i].IsZero() {
			i = (i + 1) & mask
		}
		m.keys[i] = id
		m.vals[i] = oldVals[j]
	}
}

// Delete removes id's entry, if present, backward-shifting the probe
// chain closed (see Set.remove).
func (m *Map[V]) Delete(id ID) {
	var zero V
	if id.IsZero() {
		m.zeroV, m.hasZero = zero, false
		return
	}
	if m.keys == nil {
		return
	}
	mask := uint64(len(m.keys) - 1)
	i := Fold(id) & mask
	for {
		if m.keys[i].IsZero() {
			return
		}
		if m.keys[i] == id {
			break
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		j = (j + 1) & mask
		if m.keys[j].IsZero() {
			break
		}
		k := Fold(m.keys[j]) & mask
		if (j > i && (k <= i || k > j)) || (j < i && k <= i && k > j) {
			m.keys[i] = m.keys[j]
			m.vals[i] = m.vals[j]
			i = j
		}
	}
	m.keys[i] = ID{}
	m.vals[i] = zero
	m.count--
}

// Len returns the number of stored entries.
func (m *Map[V]) Len() int {
	n := m.count
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

// Set is a bounded set of identifiers with FIFO garbage collection: once the
// set holds more than its capacity, the oldest identifiers are evicted. This
// implements the paper's requirement that K, R and C are pruned while active
// messages are retained with high probability.
//
// Membership is an open-addressing linear-probe table of IDs. The fold is
// the hash — identifiers are uniformly random, so their first 8 bytes need
// no further mixing — and the reserved all-zero ID marks empty slots, so a
// membership probe is index arithmetic plus 16-byte compares on one or two
// cache lines, with no hashing, no per-entry allocation and no runtime map
// machinery. Every simulated frame consults a Set (the dedup check), which
// made this the hottest data structure in the 10k-node profile. Removal
// uses backward-shift deletion, keeping probe chains exact without
// tombstones. The zero ID, should a caller insert it deliberately, is
// tracked in a side flag — semantics stay exact for every input.
type Set struct {
	capacity int
	table    []ID
	count    int
	hasZero  bool
	order    []ID
	head     int
}

// setMinTable is the initial open-addressing table size; must be a power
// of two.
const setMinTable = 8

// NewSet returns a Set evicting oldest entries beyond capacity. A capacity
// of zero or less means unbounded.
func NewSet(capacity int) *Set {
	return &Set{capacity: capacity}
}

// Add inserts id, evicting the oldest entries if the capacity is exceeded.
// It reports whether the id was newly inserted.
func (s *Set) Add(id ID) bool {
	if id.IsZero() {
		if s.hasZero {
			return false
		}
		s.hasZero = true
	} else {
		if s.table == nil {
			s.table = make([]ID, setMinTable)
		}
		mask := uint64(len(s.table) - 1)
		i := Fold(id) & mask
		for !s.table[i].IsZero() {
			if s.table[i] == id {
				return false
			}
			i = (i + 1) & mask
		}
		// Grow at 3/4 load so probe chains stay short, then re-probe
		// for the insertion slot in the new table.
		if (s.count+1)*4 > len(s.table)*3 {
			s.grow()
			mask = uint64(len(s.table) - 1)
			i = Fold(id) & mask
			for !s.table[i].IsZero() {
				i = (i + 1) & mask
			}
		}
		s.table[i] = id
		s.count++
	}
	if s.order == nil {
		// Start the FIFO at the table's size: a set that holds anything
		// soon holds that many, and the first doublings would each
		// allocate.
		s.order = make([]ID, 0, setMinTable)
	}
	s.order = append(s.order, id)
	s.evict()
	return true
}

// Contains reports whether id is in the set.
func (s *Set) Contains(id ID) bool {
	if id.IsZero() {
		return s.hasZero
	}
	if s.table == nil {
		return false
	}
	mask := uint64(len(s.table) - 1)
	i := Fold(id) & mask
	for !s.table[i].IsZero() {
		if s.table[i] == id {
			return true
		}
		i = (i + 1) & mask
	}
	return false
}

// Len returns the number of identifiers currently held.
func (s *Set) Len() int {
	n := s.count
	if s.hasZero {
		n++
	}
	return n
}

func (s *Set) grow() {
	old := s.table
	s.table = make([]ID, 2*len(old))
	mask := uint64(len(s.table) - 1)
	for _, id := range old {
		if id.IsZero() {
			continue
		}
		i := Fold(id) & mask
		for !s.table[i].IsZero() {
			i = (i + 1) & mask
		}
		s.table[i] = id
	}
}

// remove deletes id from the table by backward-shift: entries after the
// vacated slot are moved back when their home slot lies outside the
// cyclic gap, so every surviving entry remains reachable from its home
// probe position — deletion leaves no tombstones and no broken chains.
func (s *Set) remove(id ID) {
	if s.table == nil {
		return
	}
	mask := uint64(len(s.table) - 1)
	i := Fold(id) & mask
	for {
		if s.table[i].IsZero() {
			return
		}
		if s.table[i] == id {
			break
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		j = (j + 1) & mask
		if s.table[j].IsZero() {
			break
		}
		k := Fold(s.table[j]) & mask
		if (j > i && (k <= i || k > j)) || (j < i && k <= i && k > j) {
			s.table[i] = s.table[j]
			i = j
		}
	}
	s.table[i] = ID{}
	s.count--
}

// FootprintBytes estimates the retained bytes of the set: the full
// open-addressing table (16 bytes per slot, empty slots included — the
// table is allocated whole) and the FIFO order slice's full capacity,
// dead prefix included — that memory is pinned until the next
// compaction. The formula is deterministic arithmetic over lengths and
// capacities, so accounting walks never perturb a seeded run.
func (s *Set) FootprintBytes() int64 {
	return int64(cap(s.table))*IDSize +
		int64(cap(s.order))*IDSize
}

func (s *Set) evict() {
	if s.capacity <= 0 {
		return
	}
	for s.Len() > s.capacity {
		victim := s.order[s.head]
		s.order[s.head] = ID{}
		s.head++
		if victim.IsZero() {
			s.hasZero = false
		} else {
			s.remove(victim)
		}
	}
	// Compact the backing slice once the dead prefix dominates.
	if s.head > len(s.order)/2 && s.head > 64 {
		s.order = append(s.order[:0], s.order[s.head:]...)
		s.head = 0
	}
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
