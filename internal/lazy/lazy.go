// Package lazy implements the Lazy Point-to-Point module of the Payload
// Scheduler (paper §3.2, Fig. 3). It intercepts the gossip layer's
// transmissions and, per the Transmission Strategy's Eager? decision,
// either sends the full payload immediately (eager push) or advertises the
// message with IHAVE and serves IWANT retransmission requests from a
// payload cache (lazy push).
//
// The paper's blocking ScheduleNext() task is realised with per-message
// timers: when an IHAVE for an unknown message arrives, the first request
// is scheduled after the strategy's first-request delay (zero for Flat/TTL/
// Ranked, T0 for Radius), and further requests are re-issued every
// RequestPeriod (the paper's T, an estimate of maximum end-to-end latency,
// 400 ms in the evaluation) to a source chosen by the strategy, rotating
// through known sources so every queued request is eventually scheduled.
//
// The request state costs no allocation per message. Pending requests
// live by value in a per-module slab of slots, reused through a free
// list; each slot holds its source rotation inline and spills into a
// slice it keeps across reuse. The retry timers are armed as data
// (peer.Env.Arm): the module is the timer sink, and the key is the slot
// with its generation, which a request bumps when it ends. A fire whose
// generation is stale is ignored, so a request is cancelled by ending it,
// whether or not the host can stop the timer.
//
// Bytes follow one rule: whoever keeps bytes copies them; upcalls get
// views. A payload that arrives in a frame, or that the gossip layer
// hands down, is a view valid for the call that carries it. The one
// holder of kept payload bytes is a Payloads store: the run's shared
// store in the emulator, or a private one a module makes at its first
// Keep. The payload cache C holds only each advertised id's round; the
// first time LSend advertises an id, the module takes a hold on the id's
// bytes in the store, and C's FIFO eviction releases it, so an entry
// lives while a holder keeps it. IWANTs are answered from the store. An
// eager push encodes the view straight into the outgoing frame, and a
// duplicate is dropped, so neither copies anything.
package lazy

import (
	"time"

	"emcast/internal/ids"
	"emcast/internal/msg"
	"emcast/internal/obs"
	"emcast/internal/peer"
	"emcast/internal/strategy"
	"emcast/internal/trace"
)

// Config tunes the module.
type Config struct {
	// RequestPeriod is the paper's T: the retransmission request period
	// (evaluation value: 400 ms).
	RequestPeriod time.Duration
	// MaxRequests bounds how many IWANTs are issued per message before
	// giving up (a node that never answers and no other source appears).
	// Zero means 16.
	MaxRequests int
	// CacheCapacity bounds the payload cache C. Zero means 4096 entries.
	CacheCapacity int
}

// receivedCapacity bounds the received-set R.
const receivedCapacity = 65536

func (c *Config) fill() {
	if c.RequestPeriod <= 0 {
		c.RequestPeriod = 400 * time.Millisecond
	}
	if c.MaxRequests <= 0 {
		c.MaxRequests = 16
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 4096
	}
}

// Receiver is the upcall interface to the gossip layer: the paper's
// L-Receive(i, d, r, s).
type Receiver interface {
	LReceive(id ids.ID, payload []byte, round int, from peer.ID)
}

// Module is the per-node lazy point-to-point state. It is not safe for
// concurrent use: its request timers, armed through env.Arm, and every
// method are inputs of the owning node's step machine (see core.Node).
type Module struct {
	// requestPeriod and maxRequests are the Config a request reads; the
	// cache capacity only sizes C in New. Keeping two of Config's three
	// fields holds the per-node struct in the allocator's 208-byte class.
	requestPeriod time.Duration
	maxRequests   int
	env           *peer.Env
	strat         strategy.Strategy
	receiver      Receiver
	tracer        trace.Tracer
	// causal is the tracer's optional hop-graph extension, cached at
	// construction; nil when the tracer only wants the base events.
	causal trace.CausalTracer

	received *ids.Set             // R: messages whose payload has been received
	cache    *ids.Bounded[uint16] // C: the round of each id this module advertised
	// pending maps a requested id to its slot in reqs, the slab of
	// pending requests; free lists the slots no request holds.
	pending *ids.Map[uint32]
	reqs    []pendingRequest
	free    []uint32
	// payloads is the store SetPayloads shares with other modules; nil
	// when there is none.
	payloads *Payloads
	// own is the module's private store, made at its first Keep into it.
	// It holds the bytes of C's ids when no store is shared, and those
	// whose bytes differ from the shared store's entry for their id.
	own *Payloads

	// scratch is the reusable encode buffer for outbound frames. Safe
	// because peer.Transport.Send never retains the slice.
	scratch []byte
}

// minSlots is the slab's first capacity: a node rarely has more requests
// than this pending at once.
const minSlots = 4

// inlineSources is how many known sources a pending request holds in its
// slot before it spills into the slot's spill slice.
const inlineSources = 6

// pendingRequest is one slab slot. Its known sources form one list: the
// first asked of them were already requested in this rotation, in asking
// order, and the rest wait in arrival order. The list is inline[:n] while
// n fits, spill[:n] after.
type pendingRequest struct {
	id ids.ID
	// timer is the host's handle on the armed request timer: nil on the
	// emulator, which cancels through the generation alone.
	timer peer.Timer
	// gen is bumped when the request ends, making its armed key stale.
	gen    uint32
	tries  int32
	n      int32
	asked  int32
	inline [inlineSources]peer.ID
	spill  []peer.ID
}

// sources returns the request's source list.
func (r *pendingRequest) sources() []peer.ID {
	if int(r.n) <= len(r.inline) {
		return r.inline[:r.n]
	}
	return r.spill[:r.n]
}

// add appends a source to the waiting part of the list.
func (r *pendingRequest) add(p peer.ID) {
	switch {
	case int(r.n) < len(r.inline):
		r.inline[r.n] = p
	case int(r.n) == len(r.inline):
		r.spill = append(append(r.spill[:0], r.inline[:]...), p)
	default:
		r.spill = append(r.spill, p)
	}
	r.n++
}

// markAsked moves src from the waiting part to the end of the asked part,
// keeping both in order. PickSource returns one of the waiting sources.
func (r *pendingRequest) markAsked(src peer.ID) {
	s := r.sources()
	j := int(r.asked)
	for s[j] != src {
		j++
	}
	copy(s[r.asked+1:j+1], s[r.asked:j])
	s[r.asked] = src
	r.asked++
}

// key is the timer key of the request in slot: the slot and its
// generation.
func (r *pendingRequest) key(slot uint32) uint64 { return uint64(slot)<<32 | uint64(r.gen) }

// New creates the module. The receiver upcall must be set with SetReceiver
// before frames flow.
func New(cfg Config, env *peer.Env, strat strategy.Strategy, tracer trace.Tracer) *Module {
	cfg.fill()
	if tracer == nil {
		tracer = trace.Nop{}
	}
	causal, _ := tracer.(trace.CausalTracer)
	return &Module{
		requestPeriod: cfg.RequestPeriod,
		maxRequests:   cfg.MaxRequests,
		env:           env,
		strat:         strat,
		tracer:        tracer,
		causal:        causal,
		received:      ids.NewSet(receivedCapacity),
		cache:         ids.NewBounded[uint16](cfg.CacheCapacity),
		pending:       ids.NewMap[uint32](0),
	}
}

// SetReceiver installs the gossip-layer upcall.
func (m *Module) SetReceiver(r Receiver) { m.receiver = r }

// SetPayloads makes the module keep payloads through store, shared with
// every other module that uses it, instead of in a private store.
func (m *Module) SetPayloads(store *Payloads) { m.payloads = store }

// LSend implements the paper's L-Send(i, d, r, p): consult the strategy and
// either push the payload eagerly or advertise it lazily. The payload may
// be a view the caller reuses once LSend returns: an eager push encodes it
// into the frame at once, and the first lazy send of id, once per
// fan-out, takes a hold on it in a payload store and puts its round into
// the payload cache C. That hold is the one place the module retains a
// payload.
func (m *Module) LSend(id ids.ID, payload []byte, round int, to peer.ID) {
	if m.strat.Eager(id, round, to) {
		m.sendPayload(id, payload, round, to, true)
		return
	}
	if _, ok := m.cache.Get(id); !ok {
		m.cachePayload(id, payload, round)
	}
	frame := (&msg.IHave{ID: id}).Encode(m.scratch[:0])
	m.scratch = frame
	m.tracer.ControlSent(m.env.Self(), to, "IHAVE", len(frame))
	if m.causal != nil {
		m.causal.Advertised(m.env.Self(), to, id, m.env.Now())
	}
	m.env.Transport.Send(to, frame)
}

// cachePayload adds id, which C does not hold, to C with its round, and
// takes a hold on payload: in the shared store when there is one and it
// holds these bytes, in the module's own store otherwise. The hold on the
// id C evicts is released.
func (m *Module) cachePayload(id ids.ID, payload []byte, round int) {
	held := false
	if m.payloads != nil {
		_, held = m.payloads.Keep(id, payload)
	}
	if !held {
		if m.own == nil {
			m.own = &Payloads{}
		}
		m.own.Keep(id, payload)
	}
	if _, old, evicted := m.cache.Add(id, uint16(round)); evicted {
		m.holder(old).Release(old)
	}
}

// holder returns the store that holds the bytes of id, an id in C.
func (m *Module) holder(id ids.ID) *Payloads {
	if m.own != nil {
		if _, ok := m.own.Get(id); ok {
			return m.own
		}
	}
	return m.payloads
}

func (m *Module) sendPayload(id ids.ID, payload []byte, round int, to peer.ID, eager bool) {
	frame := (&msg.Msg{ID: id, Round: uint16(round), Payload: payload}).Encode(m.scratch[:0])
	m.scratch = frame
	m.tracer.PayloadSent(m.env.Self(), to, id, len(frame), eager)
	m.env.Transport.Send(to, frame)
}

// OnIHave handles a message advertisement: unknown ids are queued for
// retransmission requests (the paper's Queue(i, s)).
func (m *Module) OnIHave(id ids.ID, from peer.ID) {
	if m.received.Contains(id) {
		return
	}
	if slot, ok := m.pending.Get(id); ok {
		m.reqs[slot].add(from)
		return
	}
	slot := m.acquire(id)
	r := &m.reqs[slot]
	r.add(from)
	r.timer = m.env.Arm(m.strat.FirstDelay(from), m, r.key(slot))
}

// acquire takes a free slab slot (or grows the slab) for a new request.
func (m *Module) acquire(id ids.ID) uint32 {
	var slot uint32
	if n := len(m.free); n > 0 {
		slot = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		slot = uint32(len(m.reqs))
		if m.reqs == nil {
			m.reqs = make([]pendingRequest, 0, minSlots)
		}
		m.reqs = append(m.reqs, pendingRequest{})
	}
	m.reqs[slot].id = id
	m.pending.Put(id, slot)
	return slot
}

// release ends the request in slot: its armed key goes stale, and the
// slot, spill capacity included, returns to the free list.
func (m *Module) release(slot uint32) {
	r := &m.reqs[slot]
	m.pending.Delete(r.id)
	r.gen++
	r.timer = nil
	r.tries, r.n, r.asked = 0, 0, 0
	r.spill = r.spill[:0]
	m.free = append(m.free, slot)
}

// FireTimer implements peer.TimerSink: a request timer fired. It reports
// false, having done nothing, when the request it was armed for has ended.
func (m *Module) FireTimer(key uint64) bool {
	slot := uint32(key >> 32)
	if m.reqs[slot].gen != uint32(key) {
		return false
	}
	m.fireRequest(slot)
	return true
}

// fireRequest issues one IWANT for the request in slot and schedules the
// next attempt.
func (m *Module) fireRequest(slot uint32) {
	r := &m.reqs[slot]
	id := r.id
	if m.received.Contains(id) || int(r.tries) >= m.maxRequests {
		m.release(slot)
		return
	}
	if r.asked == r.n {
		// Rotation exhausted: start over through already-asked
		// sources, so requests keep flowing every T while sources are
		// known (paper §4.1).
		r.asked = 0
	}
	src := m.strat.PickSource(r.sources()[r.asked:])
	if src == peer.None {
		m.release(slot)
		return
	}
	r.markAsked(src)
	r.tries++
	frame := (&msg.IWant{ID: id}).Encode(m.scratch[:0])
	m.scratch = frame
	m.tracer.ControlSent(m.env.Self(), src, "IWANT", len(frame))
	if m.causal != nil {
		m.causal.Requested(m.env.Self(), src, id, m.env.Now())
	}
	m.env.Transport.Send(src, frame)
	r.timer = m.env.Arm(m.requestPeriod, m, r.key(slot))
}

// OnMsg handles a full payload transmission: first receipt clears pending
// requests (the paper's Clear(i)) and is handed to the gossip layer;
// duplicates are counted and dropped.
//
// The payload may alias a transport-recycled frame buffer, and OnMsg
// hands that view up as it is: it is valid for the receiver's call only.
// Whoever keeps the bytes past it copies them: LSend's lazy branch keeps
// them in a payload store for the payload cache, and an application
// upcall that holds on to a delivery copies it. An eager relay or a
// duplicate — the bulk of gossip traffic — copies nothing.
func (m *Module) OnMsg(id ids.ID, payload []byte, round int, from peer.ID) {
	if !m.received.Add(id) {
		m.tracer.DuplicatePayload(m.env.Self(), id)
		if m.causal != nil {
			m.causal.DuplicateReceived(from, m.env.Self(), id, m.env.Now())
		}
		return
	}
	if m.causal != nil {
		m.causal.PayloadReceived(from, m.env.Self(), id, m.env.Now())
	}
	m.clear(id)
	if m.receiver != nil {
		m.receiver.LReceive(id, payload, round, from)
	}
}

func (m *Module) clear(id ids.ID) {
	if slot, ok := m.pending.Get(id); ok {
		if t := m.reqs[slot].timer; t != nil {
			t.Stop()
		}
		m.release(slot)
	}
}

// OnIWant answers a retransmission request for an id in the payload
// cache, with the round C holds and the bytes the module's hold keeps. A
// request can only follow one of our advertisements, so a miss means the
// entry was garbage collected; it is traced and dropped.
func (m *Module) OnIWant(id ids.ID, from peer.ID) {
	round, ok := m.cache.Get(id)
	if !ok {
		m.tracer.RequestMiss(m.env.Self(), id)
		return
	}
	payload, _ := m.holder(id).Get(id)
	m.sendPayload(id, payload, int(round), from, false)
}

// Received reports whether the payload for id has been received.
func (m *Module) Received(id ids.ID) bool { return m.received.Contains(id) }

// PendingRequests returns the number of messages awaiting payload.
func (m *Module) PendingRequests() int { return m.pending.Len() }

// pendingSlotBytes is the size of one slab slot for Footprint: id, timer
// interface, four counters, inline sources, spill slice header (pinned by
// an unsafe.Sizeof test).
const pendingSlotBytes = 16 + 16 + 4*4 + inlineSources*4 + 24

// Footprint implements obs.Footprinter: the retained bytes of the
// per-node lazy state — the received dedup set R, the payload cache C (its
// index and rounds), the module's own store (a shared store reports
// itself once, in its own Footprint) and the pending retransmission
// requests: their id→slot table, the slab's capacity, its free list and
// the spill slices its slots keep. Arithmetic over lengths and
// capacities, plus a walk of the slab.
func (m *Module) Footprint() obs.Footprint {
	bytes := m.received.FootprintBytes() + m.cache.FootprintBytes()
	if m.own != nil {
		bytes += m.own.Footprint().Bytes
	}
	bytes += m.pending.FootprintBytes() +
		int64(cap(m.reqs))*pendingSlotBytes + int64(cap(m.free))*4
	for i := range m.reqs {
		bytes += int64(cap(m.reqs[i].spill)) * 4
	}
	return obs.Footprint{
		Subsystem: "lazy",
		Bytes:     bytes,
		Items:     int64(m.received.Len() + m.cache.Len() + m.pending.Len()),
	}
}
