package trace

import (
	"math/bits"
	"time"

	"emcast/internal/ids"
	"emcast/internal/peer"
)

// Counters are the cumulative scalar event counts of a run.
// They are cheap to copy, so phase-boundary accounting diffs Counters
// (via Checkpoint) instead of deep-copying whole snapshots.
type Counters struct {
	TotalPayloads  int
	EagerPayloads  int
	LazyPayloads   int
	PayloadBytes   int
	ControlFrames  int
	ControlBytes   int
	Duplicates     int
	RequestMisses  int
	TotalDelivered int
}

// Checkpoint is a light cumulative snapshot taken at an interval boundary:
// the scalar counters plus a copy of the per-link payload loads. Its cost
// is O(connections), never O(deliveries) — the property that lets a
// multi-phase 10k-node run take per-phase boundaries without duplicating
// the whole delivery trace at every edge.
type Checkpoint struct {
	Counters
	Links LinkLoads
}

// LinkLoads is a checkpoint's per-link load snapshot: a verbatim copy of
// the collector's open-addressing link table, taken with two bulk array
// copies instead of a per-entry map rebuild — the difference between a
// window boundary costing microseconds and costing a map's worth of
// hashing at every phase edge. The copied arrays keep the table layout,
// so Get probes exactly like the live table; iteration order is fixed by
// the table (deterministic for a deterministic event sequence).
type LinkLoads struct {
	keys  []uint64
	vals  []LinkLoad
	count int
}

// Len returns the number of links with recorded load.
func (l LinkLoads) Len() int { return l.count }

// Get returns the load for link, zero when the link never carried a
// payload.
func (l LinkLoads) Get(link Link) LinkLoad {
	if l.keys == nil {
		return LinkLoad{}
	}
	key := packLink(link.A, link.B)
	k := key + 1
	mask := uint64(len(l.keys) - 1)
	i := mix64(key) & mask
	for l.keys[i] != 0 {
		if l.keys[i] == k {
			return l.vals[i]
		}
		i = (i + 1) & mask
	}
	return LinkLoad{}
}

// Range calls fn for every (link, load) pair in table order.
func (l LinkLoads) Range(fn func(Link, LinkLoad)) {
	for i, k := range l.keys {
		if k != 0 {
			p := k - 1
			fn(Link{A: peer.ID(p >> 32), B: peer.ID(p & 0xffffffff)}, l.vals[i])
		}
	}
}

// bitset is a dense per-node bit vector, grown on demand.
type bitset struct {
	words []uint64
}

func (b *bitset) set(i uint32) {
	w := int(i >> 6)
	for len(b.words) <= w {
		b.words = append(b.words, 0)
	}
	b.words[w] |= 1 << (i & 63)
}

func (b *bitset) get(i uint32) bool {
	w := int(i >> 6)
	if w >= len(b.words) {
		return false
	}
	return b.words[w]&(1<<(i&63)) != 0
}

// MsgStats is the per-message running aggregate the metric pipeline
// consumes: who delivered (as a bitset), the non-origin delivery latencies
// in delivery order, and the payload transmissions attributed to the
// message. Every derived metric (window results, recovery times, joiner
// coverage) is computed from these aggregates, never from raw events.
type MsgStats struct {
	ID     ids.ID
	Origin peer.ID
	SentAt time.Duration

	// Deliveries counts delivery events, the origin's local delivery
	// included.
	Deliveries int
	// Latencies are the end-to-end latencies of non-origin deliveries, in
	// delivery order, as float64 nanoseconds — one exact sample per
	// delivery, so means, intervals and percentiles are exact to the last
	// bit. Empty for messages whose multicast was never traced.
	Latencies []float64
	// Payloads counts payload transmissions attributed to this message.
	Payloads int

	delivered   bitset
	completions []delivery // per-delivery (node, at); nil unless retained
}

// delivery is one retained completion record.
type delivery struct {
	node peer.ID
	at   time.Duration
}

// DeliveredBy reports whether the node delivered the message.
func (m *MsgStats) DeliveredBy(p peer.ID) bool {
	if p == peer.None {
		return false
	}
	return m.delivered.get(uint32(p))
}

// DeliveredAmong counts the distinct nodes of the live set that delivered
// the message.
func (m *MsgStats) DeliveredAmong(live map[peer.ID]bool) int {
	n := 0
	for w, word := range m.delivered.words {
		for word != 0 {
			id := peer.ID(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			if live[id] {
				n++
			}
		}
	}
	return n
}

// CompletionAmong returns the instant of the last delivery to a node of
// the live set — the message's completion time for recovery accounting —
// or 0 when no live node delivered it. ok is false when completion times
// were not retained for this message (and at least one delivery happened),
// meaning the recovery span was never marked.
func (m *MsgStats) CompletionAmong(live map[peer.ID]bool) (completed time.Duration, ok bool) {
	if m.completions == nil {
		return 0, m.Deliveries == 0
	}
	for _, d := range m.completions {
		if live[d.node] && d.at > completed {
			completed = d.at
		}
	}
	return completed, true
}

// span is a half-open virtual-time interval [from, to).
type span struct {
	from, to time.Duration
}

// counterCore is Streaming's message-independent bookkeeping: per-link
// loads and the scalar Counters, which a Checkpoint copies, and per-node
// payload counts. The owning collector serialises access.
type counterCore struct {
	// links maps the normalised endpoint pair packed into a uint64
	// (A<<32|B) to its load, via an open-addressing table with inline
	// values: this is touched once per payload transmission, and the
	// previous runtime map paid a hash plus a pointer chase per event
	// and a full map walk per checkpoint. Checkpoint unpacks the packed
	// keys back to the exported Link form.
	links linkTable
	// payloadByNode counts payload transmissions per sender. Senders are
	// dense small indices, so the counts live in a slice indexed by
	// peer.ID; sentinel-range IDs (peer.None) fall back to a lazily
	// allocated map so semantics stay exact for any input.
	payloadByNode    []int
	payloadByNodeOOB map[peer.ID]int
	counters         Counters
}

// payloadByNodeMax bounds the dense per-sender slice: IDs at or above it
// (the peer.None sentinel range) are counted in the fallback map instead
// of growing the slice.
const payloadByNodeMax = 1 << 21

func (c *counterCore) bumpNodePayload(from peer.ID) {
	if from < payloadByNodeMax {
		if int(from) >= len(c.payloadByNode) {
			if int(from) < cap(c.payloadByNode) {
				// Spare capacity from an earlier growth: the slots
				// beyond len are still zero, so extending is free.
				c.payloadByNode = c.payloadByNode[:int(from)+1]
			} else {
				want := int(from) + 1
				if grown := 2 * cap(c.payloadByNode); grown > want {
					want = grown
				}
				next := make([]int, int(from)+1, want)
				copy(next, c.payloadByNode)
				c.payloadByNode = next
			}
		}
		c.payloadByNode[from]++
		return
	}
	if c.payloadByNodeOOB == nil {
		c.payloadByNodeOOB = make(map[peer.ID]int)
	}
	c.payloadByNodeOOB[from]++
}

// linkTable is an open-addressing linear-probe map from packed link to
// LinkLoad. Values are stored inline — bumping a counter is one probe and
// two adds, with no per-link allocation — and iteration is a linear array
// scan, which makes the per-window checkpoint walk cache-friendly. Keys
// are stored plus one so the zero word marks an empty slot (the packed
// pair of two peer.None endpoints would wrap, but None never names a real
// sender or receiver of a payload).
type linkTable struct {
	keys  []uint64
	vals  []LinkLoad
	count int
}

const linkTableMin = 8

// mix64 is murmur3's fmix64 finalizer — not ids.Mix64 (splitmix64), and
// not interchangeable with it: no increment, different constants. Packed
// link keys are dense small integers, so unlike message-ID folds they need
// real mixing before masking into the table.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// load returns the (inserted-if-absent) load cell for key. The returned
// pointer is only valid until the next load call — a grow moves the
// cells.
func (t *linkTable) load(key uint64) *LinkLoad {
	if t.keys == nil {
		t.keys = make([]uint64, linkTableMin)
		t.vals = make([]LinkLoad, linkTableMin)
	}
	k := key + 1
	mask := uint64(len(t.keys) - 1)
	i := mix64(key) & mask
	for t.keys[i] != 0 {
		if t.keys[i] == k {
			return &t.vals[i]
		}
		i = (i + 1) & mask
	}
	if (t.count+1)*4 > len(t.keys)*3 {
		t.grow()
		mask = uint64(len(t.keys) - 1)
		i = mix64(key) & mask
		for t.keys[i] != 0 {
			i = (i + 1) & mask
		}
	}
	t.keys[i] = k
	t.count++
	return &t.vals[i]
}

func (t *linkTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]uint64, 2*len(oldKeys))
	t.vals = make([]LinkLoad, 2*len(oldVals))
	mask := uint64(len(t.keys) - 1)
	for j, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := mix64(k-1) & mask
		for t.keys[i] != 0 {
			i = (i + 1) & mask
		}
		t.keys[i] = k
		t.vals[i] = oldVals[j]
	}
}

// forEach calls fn for every (packed key, load) pair in table order.
func (t *linkTable) forEach(fn func(key uint64, load *LinkLoad)) {
	for i, k := range t.keys {
		if k != 0 {
			fn(k-1, &t.vals[i])
		}
	}
}

// packLink normalises and packs a link's endpoints into the map key.
func packLink(a, b peer.ID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

func (c *counterCore) payloadEvent(from, to peer.ID, bytes int, eager bool) {
	load := c.links.load(packLink(from, to))
	load.Payloads++
	load.Bytes += bytes
	c.bumpNodePayload(from)
	c.counters.TotalPayloads++
	c.counters.PayloadBytes += bytes
	if eager {
		c.counters.EagerPayloads++
	} else {
		c.counters.LazyPayloads++
	}
}

func (c *counterCore) checkpoint() Checkpoint {
	return Checkpoint{
		Counters: c.counters,
		Links: LinkLoads{
			keys:  append([]uint64(nil), c.links.keys...),
			vals:  append([]LinkLoad(nil), c.links.vals...),
			count: c.links.count,
		},
	}
}

func (c *counterCore) nodePayloads() map[peer.ID]int {
	out := make(map[peer.ID]int, len(c.payloadByNode))
	for n, k := range c.payloadByNode {
		if k != 0 {
			out[peer.ID(n)] = k
		}
	}
	for n, k := range c.payloadByNodeOOB {
		out[n] = k
	}
	return out
}

// Streaming is a Tracer that folds every event into running aggregates
// instead of retaining it: deliveries become one bit, one latency sample
// and one counter increment, and payload transmissions become per-link /
// per-node / per-message counters. Nothing in it grows with the raw event
// log except the latency samples (8 bytes per delivery, half of a raw
// (node, instant) record, and never deep-copied at a phase boundary) —
// the difference between a 10k-node sweep cell finishing and stalling on
// memory.
//
// Per-delivery (node, time) records are kept only for messages multicast
// inside spans marked with RetainCompletions — the disrupted phases whose
// recovery time needs the completion instant of each message judged
// against the end-of-run live set. Everything else retires to aggregates
// the moment the event is traced.
//
// Streaming is the simulator's collector and, like the simulator, belongs
// to one goroutine: it takes no lock. A host that shares one collector
// across goroutines — the live harness, one fleet of TCP peers — wraps it
// in Locked.
type Streaming struct {
	messages *ids.Map[*MsgStats]
	order    []ids.ID
	// pendingPayloads holds payload counts for messages not yet seen
	// (a forwarded payload can be traced before the origin's multicast on
	// a real network); they are absorbed when the message appears.
	pendingPayloads *ids.Map[int]
	retain          []span

	// hint is the expected population (Presize); when set, per-message
	// aggregates preallocate to their final size so the hot-loop fold
	// stops growing slices per delivery.
	hint int

	core counterCore
}

// NewStreaming returns an empty streaming collector.
func NewStreaming() *Streaming {
	return &Streaming{
		messages:        ids.NewMap[*MsgStats](0),
		pendingPayloads: ids.NewMap[int](0),
	}
}

// Presize tells the collector the expected node population. Message
// aggregates created afterwards preallocate their latency samples and
// delivered bitset to that size, so the per-delivery fold in the
// simulator's hot loop is pure arithmetic — no append growth, no
// allocation (pinned by TestStreamingDeliveredZeroAlloc). Purely a
// capacity hint: aggregates still grow past it if more nodes deliver,
// and reported values are byte-identical with or without it.
func (s *Streaming) Presize(nodes int) {
	s.hint = nodes
}

// newMsg allocates a message aggregate, presized when a population hint
// is set.
func (s *Streaming) newMsg(id ids.ID, origin peer.ID, sentAt time.Duration) *MsgStats {
	m := &MsgStats{ID: id, Origin: origin, SentAt: sentAt}
	if s.hint > 0 {
		m.Latencies = make([]float64, 0, s.hint)
		m.delivered.words = make([]uint64, (s.hint+63)/64)
	}
	return m
}

// RetainCompletions marks the virtual-time span [from, to): messages
// multicast inside it keep their per-delivery completion records, so
// recovery times over that window are exact under the end-of-run live
// set. Call it before the span's traffic starts — the mark applies to
// messages first seen after the call. The scenario engine and the live
// harness mark every disrupted phase automatically.
func (s *Streaming) RetainCompletions(from, to time.Duration) {
	s.retain = append(s.retain, span{from: from, to: to})
}

func (s *Streaming) retained(at time.Duration) bool {
	for _, sp := range s.retain {
		if at >= sp.from && at < sp.to {
			return true
		}
	}
	return false
}

// message returns the state for id, creating it as an orphan (unknown
// origin, SentAt -1) when the multicast was never traced, as happens in
// partial traces. A later Multicast for id does not resurrect it.
func (s *Streaming) message(id ids.ID) *MsgStats {
	m, ok := s.messages.Get(id)
	if !ok {
		m = s.newMsg(id, peer.None, -1)
		if pending, ok := s.pendingPayloads.Get(id); ok {
			m.Payloads += pending
			s.pendingPayloads.Delete(id)
		}
		s.messages.Put(id, m)
		s.order = append(s.order, id)
	}
	return m
}

// Multicast implements Tracer.
func (s *Streaming) Multicast(origin peer.ID, id ids.ID, at time.Duration) {
	if _, ok := s.messages.Get(id); ok {
		return
	}
	m := s.newMsg(id, origin, at)
	if pending, ok := s.pendingPayloads.Get(id); ok {
		m.Payloads += pending
		s.pendingPayloads.Delete(id)
	}
	if s.retained(at) {
		m.completions = []delivery{}
	}
	s.messages.Put(id, m)
	s.order = append(s.order, id)
}

// Delivered implements Tracer.
func (s *Streaming) Delivered(node peer.ID, id ids.ID, at time.Duration) {
	m := s.message(id)
	m.Deliveries++
	s.core.counters.TotalDelivered++
	if node != peer.None {
		m.delivered.set(uint32(node))
	}
	if m.SentAt >= 0 && node != m.Origin {
		m.Latencies = append(m.Latencies, float64(at-m.SentAt))
	}
	if m.completions != nil {
		m.completions = append(m.completions, delivery{node: node, at: at})
	}
}

// PayloadSent implements Tracer.
func (s *Streaming) PayloadSent(from, to peer.ID, id ids.ID, bytes int, eager bool) {
	s.core.payloadEvent(from, to, bytes, eager)
	if m, ok := s.messages.Get(id); ok {
		m.Payloads++
	} else {
		pending, _ := s.pendingPayloads.Get(id)
		s.pendingPayloads.Put(id, pending+1)
	}
}

// ControlSent implements Tracer.
func (s *Streaming) ControlSent(from, to peer.ID, kind string, bytes int) {
	s.core.counters.ControlFrames++
	s.core.counters.ControlBytes += bytes
}

// DuplicatePayload implements Tracer.
func (s *Streaming) DuplicatePayload(node peer.ID, id ids.ID) {
	s.core.counters.Duplicates++
}

// RequestMiss implements Tracer.
func (s *Streaming) RequestMiss(node peer.ID, id ids.ID) {
	s.core.counters.RequestMisses++
}

// Checkpoint copies the cumulative counters and link loads; O(links).
func (s *Streaming) Checkpoint() Checkpoint { return s.core.checkpoint() }

// MessageStats returns the per-message aggregates in multicast order. The
// aggregates' internal state is shared with the collector: treat them as
// read-only, and only rely on them while no events are being traced (the
// simulator collects with virtual time paused; the live harness takes
// Locked.CheckpointAndMessages, which copies).
func (s *Streaming) MessageStats() []MsgStats {
	out := make([]MsgStats, 0, len(s.order))
	for _, id := range s.order {
		m, _ := s.messages.Get(id)
		out = append(out, *m)
	}
	return out
}

// NodePayloads copies the per-node payload transmission counts.
func (s *Streaming) NodePayloads() map[peer.ID]int {
	return s.core.nodePayloads()
}

var _ Tracer = (*Streaming)(nil)
