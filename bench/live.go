package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"emcast"
	"emcast/internal/ids"
	"emcast/internal/neem"
	"emcast/internal/peer"
	"emcast/internal/stats"
	"emcast/internal/trace"
)

// fleet is a set of co-hosted protocol nodes on loopback TCP: the product's
// emcast.Peers for every end-to-end number, the self-assembled traced stack
// for spans.
type fleet interface {
	multicast(from int, payload []byte)
	transport() neem.Stats // summed over the fleet
	viewSizeMin() int
	close()
}

// Payload layout of every benchmark message: sequence number, CRC-32 of the
// filler, filler. Warm-up messages carry sequence numbers from warmBase up.
const (
	seqBytes = 8
	hdrBytes = seqBytes + 4
	warmBase = uint64(1) << 62
	// seqCap bounds a closed loop's message count; an open loop knows its.
	seqCap      = 1 << 16
	settleLimit = 5 * time.Second
	heapSettle  = 100 * time.Millisecond
)

// load is the traffic of one live timed region and the record of what came
// back. One generator goroutine sends; every peer's deliver upcall records.
type load struct {
	def     *liveDef
	filler  []byte
	crc     uint32
	due     []time.Duration // open loop: offset at which each message is due
	senders []int

	start   time.Time
	dueAt   []time.Duration // when each message was due (closed loop: sent)
	late    []float64       // ms the generator was late for each message
	got     [][]int64       // [peer][seq] delivery instant in ns since start, +1
	left    []atomic.Int32  // [seq] deliveries still outstanding
	sent    int
	done    atomic.Int64 // messages delivered by every peer
	wake    chan struct{}
	warm    atomic.Int64
	dups    atomic.Int64
	corrupt atomic.Int64
	// maxInFlight is the most messages a closed loop ever had outstanding.
	maxInFlight int
}

func newLoad(def *liveDef, seed int64) *load {
	rng := rand.New(rand.NewSource(seed))
	l := &load{
		def:    def,
		filler: make([]byte, def.payload-hdrBytes),
		wake:   make(chan struct{}, 1),
	}
	rng.Read(l.filler)
	l.crc = crc32.ChecksumIEEE(l.filler)
	n := seqCap
	if def.rate > 0 {
		// Open loop on a fixed schedule: constant spacing keeps the load
		// below saturation at every instant, so latency is service time,
		// and gives every seed the same message count.
		gap := time.Duration(float64(time.Second) / def.rate)
		for t := gap; t < def.timed; t += gap {
			l.due = append(l.due, t)
		}
		n = len(l.due)
	}
	l.senders = make([]int, n)
	for i := range l.senders {
		l.senders[i] = rng.Intn(def.peers)
	}
	l.dueAt = make([]time.Duration, n)
	l.late = make([]float64, 0, n)
	l.left = make([]atomic.Int32, n)
	for i := range l.left {
		l.left[i].Store(int32(def.peers))
	}
	l.got = make([][]int64, def.peers)
	for p := range l.got {
		l.got[p] = make([]int64, n)
	}
	return l
}

func (l *load) payload(seq uint64) []byte {
	p := make([]byte, hdrBytes+len(l.filler))
	binary.BigEndian.PutUint64(p, seq)
	binary.BigEndian.PutUint32(p[seqBytes:], l.crc)
	copy(p[hdrBytes:], l.filler)
	return p
}

// deliver is every peer's application upcall. A node's deliveries are
// serialised by the node's own lock, so got[peer] has one writer.
func (l *load) deliver(peer int, payload []byte) {
	now := time.Since(l.start)
	if len(payload) != hdrBytes+len(l.filler) ||
		binary.BigEndian.Uint32(payload[seqBytes:]) != l.crc ||
		crc32.ChecksumIEEE(payload[hdrBytes:]) != l.crc {
		l.corrupt.Add(1)
		return
	}
	seq := binary.BigEndian.Uint64(payload)
	if seq >= warmBase {
		l.warm.Add(1)
		return
	}
	if seq >= uint64(len(l.left)) {
		l.corrupt.Add(1)
		return
	}
	if l.got[peer][seq] != 0 {
		l.dups.Add(1)
		return
	}
	l.got[peer][seq] = int64(now) + 1
	if l.left[seq].Add(-1) == 0 {
		l.done.Add(1)
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
}

// warmUp multicasts once from every peer and waits until every peer has
// delivered all of them, so every connection is dialled before timing.
func (l *load) warmUp(f fleet) error {
	for i := 0; i < l.def.peers; i++ {
		f.multicast(i, l.payload(warmBase+uint64(i)))
	}
	want := int64(l.def.peers * l.def.peers)
	deadline := time.Now().Add(settleLimit)
	for l.warm.Load() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up: %d of %d deliveries after %v", l.warm.Load(), want, settleLimit)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// run generates the timed region's traffic from this goroutine and returns
// once every message sent was delivered everywhere, or settleLimit passed.
func (l *load) run(f fleet) {
	l.start = time.Now()
	if l.def.rate > 0 {
		for seq, due := range l.due {
			if wait := due - time.Since(l.start); wait > 0 {
				time.Sleep(wait)
			}
			l.dueAt[seq] = due
			l.late = append(l.late, float64(time.Since(l.start)-due)/float64(time.Millisecond))
			f.multicast(l.senders[seq], l.payload(uint64(seq)))
			l.sent++
		}
	} else {
		for l.sent < seqCap && time.Since(l.start) < l.def.timed {
			if !l.awaitDone(int64(l.sent - l.def.window + 1)) {
				break
			}
			l.maxInFlight = max(l.maxInFlight, l.sent+1-int(l.done.Load()))
			l.dueAt[l.sent] = time.Since(l.start)
			f.multicast(l.senders[l.sent], l.payload(uint64(l.sent)))
			l.sent++
		}
	}
	l.awaitDone(int64(l.sent))
}

// awaitDone blocks until at least n messages completed; false on timeout.
func (l *load) awaitDone(n int64) bool {
	timeout := time.NewTimer(settleLimit)
	defer timeout.Stop()
	for l.done.Load() < n {
		select {
		case <-l.wake:
		case <-timeout.C:
			return false
		}
	}
	return true
}

// countingTracer is the cheapest possible trace.Tracer: the live runs need
// the payload scheduler's counters, and a shared collector behind a mutex
// would be a cost the product does not have.
type countingTracer struct {
	eager, lazy, control, dups, misses, delivered atomic.Int64
}

func (c *countingTracer) Multicast(peer.ID, ids.ID, time.Duration) {}
func (c *countingTracer) Delivered(peer.ID, ids.ID, time.Duration) { c.delivered.Add(1) }
func (c *countingTracer) PayloadSent(_, _ peer.ID, _ ids.ID, _ int, eager bool) {
	if eager {
		c.eager.Add(1)
	} else {
		c.lazy.Add(1)
	}
}
func (c *countingTracer) ControlSent(peer.ID, peer.ID, string, int) { c.control.Add(1) }
func (c *countingTracer) DuplicatePayload(peer.ID, ids.ID)          { c.dups.Add(1) }
func (c *countingTracer) RequestMiss(peer.ID, ids.ID)               { c.misses.Add(1) }

func (c *countingTracer) counters() trace.Counters {
	eager, lazy := int(c.eager.Load()), int(c.lazy.Load())
	return trace.Counters{
		TotalPayloads:  eager + lazy,
		EagerPayloads:  eager,
		LazyPayloads:   lazy,
		ControlFrames:  int(c.control.Load()),
		Duplicates:     int(c.dups.Load()),
		RequestMisses:  int(c.misses.Load()),
		TotalDelivered: int(c.delivered.Load()),
	}
}

// peerFleet is the product: emcast.Peers with full views of one another.
type peerFleet struct{ peers []*emcast.Peer }

// startPeerFleet listens on ephemeral loopback ports, seeds every view
// with every other peer and fills the address books once all ports are
// known, as the live harness does.
func startPeerFleet(def *liveDef, seed int64, tracer trace.Tracer, deliver func(peer int, payload []byte)) (*peerFleet, error) {
	f := &peerFleet{}
	epoch := time.Now()
	for i := 0; i < def.peers; i++ {
		i := i
		others := make([]emcast.NodeID, 0, def.peers-1)
		for j := 0; j < def.peers; j++ {
			if j != i {
				others = append(others, emcast.NodeID(j))
			}
		}
		p, err := emcast.NewPeer(emcast.PeerConfig{
			Self:       emcast.NodeID(i),
			ListenAddr: "127.0.0.1:0",
			Bootstrap:  others,
			Strategy:   emcast.Eager,
			Seed:       seed<<8 + int64(i) + 1,
			Epoch:      epoch,
			Tracer:     tracer,
			OnDeliver:  func(d emcast.Delivery) { deliver(i, d.Payload) },
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.peers = append(f.peers, p)
	}
	for i, p := range f.peers {
		for j, q := range f.peers {
			if i != j {
				p.AddPeer(q.ID(), q.Addr())
			}
		}
	}
	return f, nil
}

func (f *peerFleet) multicast(from int, payload []byte) { f.peers[from].Multicast(payload) }

func (f *peerFleet) transport() neem.Stats {
	var sum neem.Stats
	for _, p := range f.peers {
		sum.Add(p.TransportStats())
	}
	return sum
}

func (f *peerFleet) viewSizeMin() int {
	least := len(f.peers)
	for _, p := range f.peers {
		least = min(least, len(p.View()))
	}
	return least
}

func (f *peerFleet) close() {
	for _, p := range f.peers {
		// Close only reports the listener's close error; nothing to act on.
		_ = p.Close()
	}
}

// runLive plays one live workload on emcast.Peers and reads every counter
// afterwards through getters.
func runLive(name string, def *liveDef, seed int64, mode string) (*iteration, error) {
	if def.procs > 0 {
		runtime.GOMAXPROCS(def.procs)
	}
	l := newLoad(def, seed)
	tracer := &countingTracer{}

	setupStart := time.Now()
	f, err := startPeerFleet(def, seed, tracer, l.deliver)
	if err != nil {
		return nil, err
	}
	defer f.close()
	if err := l.warmUp(f); err != nil {
		return nil, err
	}
	setup := time.Since(setupStart)

	it := &iteration{Workload: name, Seed: seed, Metrics: map[string]float64{}}
	var profile bytes.Buffer
	var goroutines, depth *sampler
	if mode == modeProfile {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return nil, err
		}
		goroutines = startSampler(func() float64 { return float64(runtime.NumGoroutine()) })
		depth = startSampler(func() float64 { return float64(f.transport().QueueDepth) })
	}
	host := measureLive(it, l, f, tracer.counters)
	if mode == modeProfile {
		pprof.StopCPUProfile()
		it.Metrics["runtime.goroutines_peak"] = goroutines.stop().max
		d := depth.stop()
		it.Metrics["neem.queue_depth_p99"], it.Metrics["neem.queue_depth_max"] = d.p99, d.max
		shares, err := foldProfile(profile.Bytes())
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		for pkg, share := range shares {
			it.Metrics["cpu_share."+pkg] = share
		}
	}
	it.Metrics["setup_s"] = host.reference(setup).Seconds()
	return it, nil
}

// measureLive brackets the timed region of a warmed-up fleet and derives
// the live end-to-end metrics, the counter ledger and the output checks. It
// returns the host's speed around the region.
func measureLive(it *iteration, l *load, f fleet, counters func() trace.Counters) hostSpeed {
	def := l.def
	probed := probeHost()
	net0, c0 := f.transport(), counters()
	before := takeUsage()
	l.run(f)
	u := takeUsage().since(before)
	host := probed()
	net1, c1 := f.transport(), counters()
	it.WallS = u.wall.Seconds()

	const ms = float64(time.Millisecond)
	var latencies, lasts []float64
	var delivered int64
	for seq := 0; seq < l.sent; seq++ {
		last := 0.0
		reached := 0
		for p := 0; p < def.peers; p++ {
			at := l.got[p][seq]
			if at == 0 {
				continue
			}
			reached++
			lat := float64(time.Duration(at-1)-l.dueAt[seq]) / ms
			last = max(last, lat)
			if p != l.senders[seq] { // the origin's own delivery crosses no link
				latencies = append(latencies, lat)
			}
		}
		lasts = append(lasts, last)
		delivered += int64(reached)
		it.Attempted++
		if !multicastReached(reached, def.peers) {
			it.Failed++
		}
	}
	msgs := float64(l.sent)
	it.Messages = int64(l.sent)
	expected := int64(l.sent * def.peers)

	mt := it.Metrics
	u.fill(it, float64(delivered), host)
	if def.rate > 0 {
		// An open loop's wall time is its schedule's, not the host's.
		mt["deliveries_per_s"] = ratio(float64(delivered), u.wall.Seconds())
	}
	// Duplicates of the last messages are still in queues when the last
	// first copy lands; let them drain so the heap measured is the fleet's.
	time.Sleep(heapSettle)
	mt["live_heap_mb"] = liveHeapMB()
	mt["delivery_p50_ms"] = stats.Percentile(latencies, 50) * host.factor()
	mt["delivery_p95_ms"] = stats.Percentile(latencies, 95) * host.factor()
	mt["last_delivery_p50_ms"] = stats.Percentile(lasts, 50) * host.factor()
	mt["live.delivery_p99_ms"] = stats.Percentile(latencies, 99) * host.factor()
	mt["live.last_delivery_p99_ms"] = stats.Percentile(lasts, 99) * host.factor()
	mt["loadgen.max_late_ms"] = stats.Percentile(l.late, 100)
	mt["loadgen.late_p99_ms"] = stats.Percentile(l.late, 99)
	mt["live.view_size_min"] = float64(f.viewSizeMin())

	c := c1
	c.TotalPayloads -= c0.TotalPayloads
	c.EagerPayloads -= c0.EagerPayloads
	c.LazyPayloads -= c0.LazyPayloads
	c.ControlFrames -= c0.ControlFrames
	c.Duplicates -= c0.Duplicates
	c.RequestMisses -= c0.RequestMisses
	c.TotalDelivered -= c0.TotalDelivered
	lazyLedger(mt, c, msgs)
	mt["payload_per_delivery"] = ratio(float64(c.TotalPayloads), float64(delivered))
	mt["delivered_share"] = ratio(float64(delivered), float64(expected))

	frames := float64(net1.FramesSent - net0.FramesSent)
	lost := float64(net1.FramesLost - net0.FramesLost)
	mt["neem.frames"] = frames
	mt["neem.frames_per_msg"] = ratio(frames, msgs)
	mt["neem.wire_bytes_per_frame"] = ratio(float64(net1.BytesSent-net0.BytesSent), frames)
	mt["neem.frames_lost_share"] = ratio(lost, frames+lost)
	mt["neem.lost_purge"] = float64(net1.LostPurge - net0.LostPurge)
	mt["neem.lost_write"] = float64(net1.LostWrite - net0.LostWrite)
	mt["neem.lost_reap"] = float64(net1.LostReap - net0.LostReap)
	mt["neem.reconnects"] = float64(net1.Reconnects - net0.Reconnects)

	if delivered != expected {
		it.failf("%d of %d (message, peer) deliveries missing", expected-delivered, expected)
	}
	if n := l.dups.Load(); n != 0 {
		it.failf("%d messages delivered twice to one peer", n)
	}
	if n := l.corrupt.Load(); n != 0 {
		it.failf("%d deliveries with a damaged payload", n)
	}
	if lost != 0 {
		it.failf("%v frames lost on loopback", lost)
	}
	if mt["neem.reconnects"] != 0 {
		it.failf("%v reconnects on loopback", mt["neem.reconnects"])
	}
	if def.window > 0 && l.maxInFlight > def.window {
		it.failf("closed loop had %d messages in flight, window is %d", l.maxInFlight, def.window)
	}
	return host
}
