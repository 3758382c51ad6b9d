// Package emunet is a deterministic discrete-event network emulator playing
// the role ModelNet plays in the paper (§5.1): it applies per-path delay
// and loss to traffic between protocol instances running unmodified
// protocol code.
//
// The emulator is single-threaded over a virtual clock. Events (frame
// deliveries and timer callbacks) execute in a total order keyed by
// (time, sequence), so a run is exactly reproducible from its seed. Nodes
// can be silenced to emulate the paper's firewall-based failure injection
// (§6.3): a silenced node's inbound and outbound packets are dropped while
// its local timers keep running.
package emunet

import (
	"fmt"
	"math/rand/v2"
	"time"

	"emcast/internal/faults"
	"emcast/internal/ids"
	"emcast/internal/obs"
	"emcast/internal/peer"
)

// Handler receives frames delivered to a node.
//
// The frame slice is recycled as soon as HandleFrame returns: handlers
// must copy anything they keep. Protocol nodes keep payloads through the
// run's store (shared in the simulator, a private copy on TCP), never the
// frame.
type Handler interface {
	HandleFrame(from int, frame []byte)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from int, frame []byte)

// HandleFrame calls f(from, frame).
func (f HandlerFunc) HandleFrame(from int, frame []byte) { f(from, frame) }

// LatencyFunc returns the one-way propagation delay between two nodes.
type LatencyFunc func(from, to int) time.Duration

// Config tunes emulator behaviour beyond pure propagation delay.
type Config struct {
	// Loss is the independent probability that any frame is dropped,
	// emulating network omissions.
	Loss float64
	// Seed drives the loss draws.
	Seed int64
	// PooledFrames is kept for bench/ alone, which sets it and could not
	// be edited by the change that made every frame go through the arena:
	// the network ignores it. The benchmark change that stops setting it
	// deletes the field.
	PooledFrames bool
}

// Network is a simulated packet network between n nodes.
type Network struct {
	cfg     Config
	latency LatencyFunc
	rng     *rand.Rand
	now     time.Duration
	seq     uint64
	// wheel is the event queue (see wheel.go), called on its concrete
	// type so calls inline and event pointers provably do not escape.
	wheel    *timerWheel
	handlers []Handler
	silenced []bool

	// pool recycles frame buffers; oversizeFrameBytes tracks the
	// in-flight bytes of frames too large for the pool's size classes,
	// so Footprint stays exact.
	pool               framePool
	oversizeFrameBytes int64

	// Dynamic conditions (scenario-driven network dynamics). latFactor
	// scales and extraLat shifts the propagation delay of future frames;
	// group/partitioned implement partitions: frames crossing group
	// boundaries are dropped, including frames already in flight when the
	// partition starts (the link is cut under them).
	latFactor   float64
	extraLat    time.Duration
	group       []int
	partitioned bool

	// Counters for run statistics (paper §5.4). EventsProcessed counts
	// every executed event (frame deliveries and timer fires) — the raw
	// events/sec denominator for simulator throughput. TimerFires is the
	// timer-callback share of it (deliver events = EventsProcessed -
	// TimerFires).
	FramesSent      uint64
	FramesDelivered uint64
	FramesLost      uint64
	BytesDelivered  uint64
	EventsProcessed uint64
	TimerFires      uint64

	// ins mirrors the counters above into an obs registry, when attached.
	ins Instruments

	// faults is the optional fault-injection plane (see internal/faults).
	// It draws from its own seeded stream and is consulted only when a
	// rule or stall is registered, so an attached-but-inert injector
	// leaves the simulation byte-identical.
	faults *faults.Injector
}

// Instruments are optional observability counters the emulator bumps as
// it runs (see internal/obs). The plain counter fields above are
// single-goroutine state, unreadable mid-run from a scrape handler; these
// are atomic, so a live /metrics endpoint can watch a run in flight. All
// fields are nil-safe: an unattached network pays one predicted branch
// per bump.
type Instruments struct {
	Events          *obs.Counter
	FramesSent      *obs.Counter
	FramesDelivered *obs.Counter
	FramesLost      *obs.Counter
	BytesDelivered  *obs.Counter

	// DeliverEvents/TimerEvents split EventsProcessed by class. Time per
	// class is not measured here: the emulator never reads the wall
	// clock (pprof and the benchmark's span ledger attribute CPU).
	DeliverEvents *obs.Counter
	TimerEvents   *obs.Counter
}

// SetInstruments attaches observability counters. Call before Run;
// counters never influence event order or timing.
func (n *Network) SetInstruments(ins Instruments) { n.ins = ins }

// SetFaults attaches a fault injector consulted at frame-send time. Call
// before Run. A nil or inert injector changes nothing; with rules or
// stalls installed, Send applies drop/delay/duplicate verdicts and stall
// deferrals deterministically (the injector draws from its own seed).
func (n *Network) SetFaults(inj *faults.Injector) { n.faults = inj }

// Faults returns the attached injector (nil when none).
func (n *Network) Faults() *faults.Injector { return n.faults }

// New creates a network of n nodes with the given one-way latency model.
func New(n int, latency LatencyFunc, cfg Config) *Network {
	return &Network{
		cfg:       cfg,
		latency:   latency,
		rng:       rand.New(rand.NewPCG(ids.Mix64(uint64(cfg.Seed)), ids.Mix64(^uint64(cfg.Seed)))),
		wheel:     newTimerWheel(),
		handlers:  make([]Handler, n),
		silenced:  make([]bool, n),
		latFactor: 1,
		group:     make([]int, n),
	}
}

// SchedStats returns the scheduler's internal counters (cascades, bucket
// sorts, sorted inserts, overflow spills) for bench reporting.
func (n *Network) SchedStats() SchedStats { return n.wheel.stats() }

// Register installs the frame handler for a node. It must be called before
// frames are delivered to that node; frames to unregistered nodes are
// dropped.
func (n *Network) Register(node int, h Handler) {
	n.handlers[node] = h
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.now }

// Silence drops all future traffic to and from the node, emulating the
// paper's firewall-rule failure injection. The node's timers keep firing;
// it simply cannot communicate.
func (n *Network) Silence(node int) { n.silenced[node] = true }

// SetLatencyFactor scales the propagation delay of frames sent from now on
// by f (1 restores the base model). It emulates path inflation — congested
// backbones, rerouting after a link failure — without rebuilding the
// topology. Factors <= 0 are treated as 1.
func (n *Network) SetLatencyFactor(f float64) {
	if f <= 0 {
		f = 1
	}
	n.latFactor = f
}

// SetExtraLatency adds a constant delay to frames sent from now on (0
// restores the base model), emulating a uniform latency shift such as an
// access-link change. Negative values are treated as 0.
func (n *Network) SetExtraLatency(d time.Duration) {
	if d < 0 {
		d = 0
	}
	n.extraLat = d
}

// SetLoss replaces the frame loss probability for frames sent from now on,
// emulating loss spikes. Values outside [0, 1] are clamped.
func (n *Network) SetLoss(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	n.cfg.Loss = p
}

// Partition splits the network: nodes listed in different groups cannot
// exchange frames until Heal is called. Nodes absent from every group form
// one implicit extra group together, so Partition([][]int{{0, 1, 2}})
// isolates nodes 0-2 from everyone else. Frames already in flight across a
// new boundary are dropped on arrival — the cut severs them mid-path, as a
// real partition would. A new call replaces any previous partition.
func (n *Network) Partition(groups [][]int) {
	for i := range n.group {
		n.group[i] = 0
	}
	for g, nodes := range groups {
		for _, node := range nodes {
			if node >= 0 && node < len(n.group) {
				n.group[node] = g + 1
			}
		}
	}
	n.partitioned = true
}

// Heal removes the current partition; traffic flows freely again.
func (n *Network) Heal() { n.partitioned = false }

// cut reports whether a partition currently separates the two nodes.
func (n *Network) cut(from, to int) bool {
	return n.partitioned && n.group[from] != n.group[to]
}

// Send transmits a frame from one node to another, applying loss and
// propagation delay. The frame is copied, so callers may reuse the
// buffer.
func (n *Network) Send(from, to int, frame []byte) {
	n.FramesSent++
	n.ins.FramesSent.Inc()
	if n.silenced[from] || n.silenced[to] || n.cut(from, to) {
		n.FramesLost++
		n.ins.FramesLost.Inc()
		return
	}
	if n.cfg.Loss > 0 && n.rng.Float64() < n.cfg.Loss {
		n.FramesLost++
		n.ins.FramesLost.Inc()
		return
	}
	// Fault plane: injected verdicts ride on top of the base loss model.
	// The injector draws from its own seeded stream, so the emulator RNG
	// (and thus the no-fault trajectory) is untouched either way.
	var fv faults.Verdict
	if n.faults.Active() {
		fv = n.faults.Frame(from, to)
		if fv.Drop {
			n.FramesLost++
			n.ins.FramesLost.Inc()
			return
		}
	}
	delay := n.latency(from, to)
	if n.latFactor != 1 {
		delay = time.Duration(float64(delay) * n.latFactor)
	}
	delay += n.extraLat
	if fv.Delay > 0 {
		delay += fv.Delay
	}
	if n.faults.Active() {
		// A stalled endpoint defers the frame past its stall deadline: a
		// frozen process neither transmits nor processes arrivals.
		delay += n.faults.StallDelay(n.now, from, to)
	}
	n.queueDeliver(n.now+delay, from, to, frame)
	if fv.Duplicate {
		// Second copy at the same arrival instant; the later sequence
		// number delivers it after the original, and the dedup layers
		// above the transport are expected to absorb it.
		n.FramesSent++
		n.ins.FramesSent.Inc()
		n.queueDeliver(n.now+delay, from, to, frame)
	}
}

// queueDeliver copies the frame into the arena and schedules its
// delivery event.
func (n *Network) queueDeliver(at time.Duration, from, to int, frame []byte) {
	cp := n.pool.get(len(frame))
	copy(cp, frame)
	if frameClass(len(frame)) < 0 {
		n.oversizeFrameBytes += int64(len(frame))
	}
	// Zero-copy: reserve the bucket slot and write the event fields
	// straight into it — no 80-byte stack event, no block copy.
	s := n.pushSlot(at)
	s.from = from
	s.to = to
	s.frame = cp
}

// releaseFrame recycles a delivered (or dropped) frame buffer back into
// the pool.
func (n *Network) releaseFrame(frame []byte) {
	if frameClass(len(frame)) < 0 {
		n.oversizeFrameBytes -= int64(len(frame))
	}
	n.pool.put(frame)
}

// funcTimer is an AfterFunc callback: the timer sink of the closure
// timers, so the wheel has one timer event, a (sink, key) pair.
type funcTimer struct {
	fn      func()
	stopped bool
	fired   bool
}

// Stop cancels the timer, reporting whether it was still pending.
func (t *funcTimer) Stop() bool {
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	return true
}

// FireTimer implements peer.TimerSink: it runs the callback unless the
// timer was stopped.
func (t *funcTimer) FireTimer(uint64) bool {
	if t.stopped {
		return false
	}
	t.fired = true
	t.fn()
	return true
}

// AfterFunc schedules fn to run at virtual time Now()+d. Callbacks run on
// the simulation goroutine in event order.
func (n *Network) AfterFunc(d time.Duration, fn func()) peer.Timer {
	t := &funcTimer{fn: fn}
	n.Arm(d, t, 0)
	return t
}

// Arm implements peer.Arming: at virtual time Now()+d the network calls
// sink.FireTimer(key) on the simulation goroutine, in event order. The
// pair is stored in the event slot itself, so arming allocates nothing.
// The returned Timer is nil: the sink cancels by ignoring a stale key,
// and the fire is then accounted as a stopped timer's is.
func (n *Network) Arm(d time.Duration, sink peer.TimerSink, key uint64) peer.Timer {
	if d < 0 {
		d = 0
	}
	s := n.pushSlot(n.now + d)
	s.sink = sink
	s.key = key
	return nil
}

// execEvent advances the clock to ev.at and executes one popped event,
// reporting whether it was a "real" execution (a delivered frame or a
// fired timer) as opposed to a skipped one (a frame dropped by
// silence/partition, or a timer whose sink reported the fire stale: a
// stopped AfterFunc timer, or a data timer its node had superseded).
//
// The accounting obeys the plane's determinism rule: class counters are
// plain integer updates plus nil-safe atomic bumps that feed nothing back
// into the virtual clock, event order, or any RNG.
func (n *Network) execEvent(ev *event) bool {
	if ev.at < n.now {
		panic(fmt.Sprintf("emunet: time went backwards: %v < %v", ev.at, n.now))
	}
	n.now = ev.at
	n.EventsProcessed++
	n.ins.Events.Inc()
	if ev.sink != nil {
		n.TimerFires++
		n.ins.TimerEvents.Inc()
		return ev.sink.FireTimer(ev.key)
	}
	n.ins.DeliverEvents.Inc()
	if n.silenced[ev.from] || n.silenced[ev.to] || n.cut(ev.from, ev.to) {
		n.FramesLost++
		n.ins.FramesLost.Inc()
		n.releaseFrame(ev.frame)
		return false
	}
	h := n.handlers[ev.to]
	if h == nil {
		n.FramesLost++
		n.ins.FramesLost.Inc()
		n.releaseFrame(ev.frame)
		return false
	}
	n.FramesDelivered++
	n.BytesDelivered += uint64(len(ev.frame))
	n.ins.FramesDelivered.Inc()
	n.ins.BytesDelivered.Add(int64(len(ev.frame)))
	h.HandleFrame(ev.from, ev.frame)
	n.releaseFrame(ev.frame)
	return true
}

// Step executes the single next event. It reports false when no events
// remain. Skipped events (dropped frames, stopped or stale timers) are
// consumed and counted but do not satisfy the step — Step keeps popping
// until a real execution or the queue drains.
func (n *Network) Step() bool {
	for {
		ev, ok := n.wheel.pop()
		if !ok {
			return false
		}
		if n.execEvent(&ev) {
			return true
		}
	}
}

// eventSlotBytes is the exact size of the event struct (pinned by a
// unsafe.Sizeof unit test), the unit of every scheduler slot for
// Footprint — wheel bucket cells, free-list cells and the overflow heap
// alike.
const eventSlotBytes = 80 // at, seq, sink, from, to, frame header, key

// Footprint implements obs.Footprinter: every event slot the scheduler
// retains (the wheel walks its bucket cells, free list and overflow
// heap), the frame arena in full (pooled buffers are never returned to
// the GC, so retained capacity is the truthful number) plus in-flight
// oversize frames, and the per-node handler/silenced/group slices.
// Read-only and pure arithmetic, per the plane's determinism rule.
func (n *Network) Footprint() obs.Footprint {
	return obs.Footprint{
		Subsystem: "emunet",
		Bytes: n.wheel.slotCap()*eventSlotBytes +
			n.pool.bytes + n.oversizeFrameBytes +
			int64(len(n.handlers))*(16+1+8), // handler iface + silenced + group
		Items: int64(n.wheel.len()),
	}
}

// Run executes events until the virtual clock reaches deadline or the event
// queue drains. It pops one event at a time while the next lies at or
// before deadline, so it never executes an event past it, and returns the
// number of real executions (skipped events are consumed, not counted).
func (n *Network) Run(deadline time.Duration) int {
	steps := 0
	for {
		at, ok := n.wheel.peekAt()
		if !ok || at > deadline {
			break
		}
		ev, _ := n.wheel.pop()
		if n.execEvent(&ev) {
			steps++
		}
	}
	if n.now < deadline {
		n.now = deadline
	}
	return steps
}

// event is one scheduler slot: a frame delivery (sink nil: from, to,
// frame) or a timer fire (sink and key). Both kinds share the 80 bytes;
// eventSlotBytes pins the size.
type event struct {
	at    time.Duration
	seq   uint64
	sink  peer.TimerSink
	from  int
	to    int
	frame []byte
	key   uint64
}

var (
	_ peer.Clock  = (*Network)(nil)
	_ peer.Timers = (*Network)(nil)
	_ peer.Arming = (*Network)(nil)
)

// pushSlot reserves the next event slot at virtual time at in the wheel
// and returns it for in-place field writes.
func (n *Network) pushSlot(at time.Duration) *event {
	n.seq++
	return n.wheel.pushSlot(at, n.seq)
}
