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
	// ReceivedCapacity bounds the received-set R. Zero means 65536.
	ReceivedCapacity int
}

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
	if c.ReceivedCapacity <= 0 {
		c.ReceivedCapacity = 65536
	}
}

// Receiver is the upcall interface to the gossip layer: the paper's
// L-Receive(i, d, r, s).
type Receiver interface {
	LReceive(id ids.ID, payload []byte, round int, from peer.ID)
}

// Module is the per-node lazy point-to-point state. It is not safe for
// concurrent use: its request timers, armed through env.Timers, and every
// method are inputs of the owning node's step machine (see core.Node).
type Module struct {
	cfg      Config
	env      *peer.Env
	strat    strategy.Strategy
	receiver Receiver
	tracer   trace.Tracer
	// causal is the tracer's optional hop-graph extension, cached at
	// construction; nil when the tracer only wants the base events.
	causal trace.CausalTracer

	received *ids.Set // R: messages whose payload has been received
	cache    *payloadCache
	pending  *ids.Map[*pendingRequest]
	// payloads keeps every payload the module retains past a frame; nil
	// (the default) means a private copy each, owned by this module.
	payloads *Payloads

	// scratch is the reusable encode buffer for outbound frames. Safe
	// because peer.Transport.Send never retains the slice.
	scratch []byte
}

type cached struct {
	payload []byte
	round   int
}

type pendingRequest struct {
	sources []peer.ID // known sources not yet asked in this rotation
	asked   []peer.ID // sources already asked (kept for rotation)
	timer   peer.Timer
	tries   int
}

// New creates the module. The receiver upcall must be set with SetReceiver
// before frames flow.
func New(cfg Config, env *peer.Env, strat strategy.Strategy, tracer trace.Tracer) *Module {
	cfg.fill()
	if tracer == nil {
		tracer = trace.Nop{}
	}
	causal, _ := tracer.(trace.CausalTracer)
	return &Module{
		cfg:      cfg,
		env:      env,
		strat:    strat,
		tracer:   tracer,
		causal:   causal,
		received: ids.NewSet(cfg.ReceivedCapacity),
		cache:    newPayloadCache(cfg.CacheCapacity),
		pending:  ids.NewMap[*pendingRequest](0),
	}
}

// SetReceiver installs the gossip-layer upcall.
func (m *Module) SetReceiver(r Receiver) { m.receiver = r }

// SetPayloads makes the module keep payloads through store, shared with
// every other module that uses it, instead of in private copies.
func (m *Module) SetPayloads(store *Payloads) { m.payloads = store }

// Keep returns the retainable copy of payload for id, through the module's
// payload store (see Payloads.Keep): the gossip layer keeps its own
// multicasts with it, OnMsg every first receipt.
func (m *Module) Keep(id ids.ID, payload []byte) []byte { return m.payloads.Keep(id, payload) }

// Strategy returns the module's transmission strategy.
func (m *Module) Strategy() strategy.Strategy { return m.strat }

// LSend implements the paper's L-Send(i, d, r, p): consult the strategy and
// either push the payload eagerly or advertise it lazily.
func (m *Module) LSend(id ids.ID, payload []byte, round int, to peer.ID) {
	if m.strat.Eager(id, round, to) {
		m.sendPayload(id, payload, round, to, true)
		return
	}
	m.cache.put(id, cached{payload: payload, round: round})
	frame := (&msg.IHave{ID: id}).Encode(m.scratch[:0])
	m.scratch = frame
	m.tracer.ControlSent(m.env.Self(), to, "IHAVE", len(frame))
	if m.causal != nil {
		m.causal.Advertised(m.env.Self(), to, id, m.env.Now())
	}
	m.env.Transport.Send(to, frame)
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
	req, ok := m.pending.Get(id)
	if !ok {
		req = &pendingRequest{}
		m.pending.Put(id, req)
		req.sources = append(req.sources, from)
		delay := m.strat.FirstDelay(from)
		req.timer = m.env.Timers.AfterFunc(delay, func() { m.fireRequest(id) })
		return
	}
	req.sources = append(req.sources, from)
}

// fireRequest issues one IWANT for id and schedules the next attempt.
func (m *Module) fireRequest(id ids.ID) {
	req, ok := m.pending.Get(id)
	if !ok || m.received.Contains(id) {
		m.pending.Delete(id)
		return
	}
	if req.tries >= m.cfg.MaxRequests {
		m.pending.Delete(id)
		return
	}
	if len(req.sources) == 0 {
		// Rotation exhausted: start over through already-asked
		// sources, so requests keep flowing every T while sources are
		// known (paper §4.1).
		req.sources, req.asked = req.asked, nil
	}
	src := m.strat.PickSource(req.sources)
	if src == peer.None {
		m.pending.Delete(id)
		return
	}
	removeSource(req, src)
	req.asked = append(req.asked, src)
	req.tries++
	frame := (&msg.IWant{ID: id}).Encode(m.scratch[:0])
	m.scratch = frame
	m.tracer.ControlSent(m.env.Self(), src, "IWANT", len(frame))
	if m.causal != nil {
		m.causal.Requested(m.env.Self(), src, id, m.env.Now())
	}
	m.env.Transport.Send(src, frame)
	req.timer = m.env.Timers.AfterFunc(m.cfg.RequestPeriod, func() { m.fireRequest(id) })
}

func removeSource(req *pendingRequest, src peer.ID) {
	for i, s := range req.sources {
		if s == src {
			req.sources = append(req.sources[:i], req.sources[i+1:]...)
			return
		}
	}
}

// OnMsg handles a full payload transmission: first receipt clears pending
// requests (the paper's Clear(i)) and is handed to the gossip layer;
// duplicates are counted and dropped.
//
// The payload may alias a transport-recycled frame buffer: on first
// receipt OnMsg keeps it through the run's store (shared in the
// simulator, a private copy on TCP) before anything downstream (the
// gossip forward path, the payload cache, the application deliver
// upcall) can retain it. Duplicates — the bulk of gossip traffic — are
// never kept.
func (m *Module) OnMsg(id ids.ID, payload []byte, round int, from peer.ID) {
	if !m.received.Add(id) {
		m.tracer.DuplicatePayload(m.env.Self(), id)
		if m.causal != nil {
			m.causal.DuplicateReceived(from, m.env.Self(), id, m.env.Now())
		}
		return
	}
	payload = m.payloads.Keep(id, payload)
	if m.causal != nil {
		m.causal.PayloadReceived(from, m.env.Self(), id, m.env.Now())
	}
	m.clear(id)
	if m.receiver != nil {
		m.receiver.LReceive(id, payload, round, from)
	}
}

func (m *Module) clear(id ids.ID) {
	if req, ok := m.pending.Get(id); ok {
		if req.timer != nil {
			req.timer.Stop()
		}
		m.pending.Delete(id)
	}
}

// OnIWant answers a retransmission request from the payload cache. A
// request can only follow one of our advertisements, so a miss means the
// entry was garbage collected; it is traced and dropped.
func (m *Module) OnIWant(id ids.ID, from peer.ID) {
	entry, ok := m.cache.get(id)
	if !ok {
		m.tracer.RequestMiss(m.env.Self(), id)
		return
	}
	m.sendPayload(id, entry.payload, entry.round, from, false)
}

// Received reports whether the payload for id has been received.
func (m *Module) Received(id ids.ID) bool { return m.received.Contains(id) }

// PendingRequests returns the number of messages awaiting payload.
func (m *Module) PendingRequests() int { return m.pending.Len() }

// Per-entry size estimates for Footprint: the cached struct (payload
// slice header + round) stored as a map value, and the pendingRequest
// struct behind its map pointer (two slice headers, timer interface,
// tries).
const (
	cachedEntryBytes   = 24 + 8
	pendingStructBytes = 2*24 + 16 + 8
)

// Footprint implements obs.Footprinter: the retained bytes of the
// per-node lazy state — the received dedup set R, the payload cache C
// (map entries, plus the cached payload bytes the cache tracks
// incrementally when the module owns them; a shared store reports those
// once, in its own Footprint) and the pending retransmission requests
// with their source rotation queues. Pure arithmetic over tracked lengths
// and capacities.
func (m *Module) Footprint() obs.Footprint {
	bytes := m.received.FootprintBytes()
	bytes += int64(m.cache.entries.TableLen())*(ids.IDSize+cachedEntryBytes) +
		int64(cap(m.cache.order))*ids.IDSize
	if m.payloads == nil {
		bytes += m.cache.bytes
	}
	bytes += int64(m.pending.TableLen()) * (ids.IDSize + 8)
	m.pending.Range(func(_ ids.ID, req *pendingRequest) {
		bytes += pendingStructBytes + int64(cap(req.sources)+cap(req.asked))*4
	})
	return obs.Footprint{
		Subsystem: "lazy",
		Bytes:     bytes,
		Items:     int64(m.received.Len() + m.cache.Len() + m.pending.Len()),
	}
}

// payloadCache is the bounded map C of Fig. 3, with FIFO eviction.
type payloadCache struct {
	capacity int
	entries  *ids.Map[cached]
	order    []ids.ID
	head     int
	// bytes tracks the payload bytes currently cached, maintained on
	// put/evict so Footprint never walks the entries.
	bytes int64
}

func newPayloadCache(capacity int) *payloadCache {
	return &payloadCache{
		capacity: capacity,
		entries:  ids.NewMap[cached](0),
	}
}

func (c *payloadCache) put(id ids.ID, e cached) {
	if _, ok := c.entries.Get(id); ok {
		return
	}
	c.entries.Put(id, e)
	c.bytes += int64(len(e.payload))
	c.order = append(c.order, id)
	for c.entries.Len() > c.capacity {
		victim := c.order[c.head]
		c.order[c.head] = ids.ID{}
		c.head++
		if v, ok := c.entries.Get(victim); ok {
			c.bytes -= int64(len(v.payload))
		}
		c.entries.Delete(victim)
	}
	if c.head > len(c.order)/2 && c.head > 64 {
		c.order = append(c.order[:0], c.order[c.head:]...)
		c.head = 0
	}
}

func (c *payloadCache) get(id ids.ID) (cached, bool) {
	return c.entries.Get(id)
}

// Len returns the number of cached payloads.
func (c *payloadCache) Len() int { return c.entries.Len() }
