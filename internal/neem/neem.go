// Package neem provides a real-network transport for the protocol stack,
// modelled on the NeEM 0.5 implementation the paper modified (§5.2): nodes
// are connected by TCP links; when a connection blocks, frames are buffered
// in user space in a bounded queue with a purging strategy (oldest frames
// dropped first), yielding a "virtual connection-less layer that provides
// improved guarantees for gossiping".
//
// Frames are length-prefixed; each connection begins with a 4-byte
// handshake carrying the dialer's node identifier. The transport implements
// peer.Transport, so the exact protocol code that runs in the simulator
// runs over real sockets. The socket is paid per batch of frames, not per
// frame: whatever is pending on a connection goes out in one write, and
// one read brings in as many frames as have arrived (see wire.go).
//
// The transport is self-healing. Outbound connections dial with jittered
// exponential backoff behind a global concurrency limit (no reconnect
// storms), every batch is written under a deadline (a stalled peer cannot
// wedge a write loop), and a connection that dies mid-stream reconnects
// with its queue intact. A peer that stays unreachable through the
// configured dial budget is marked suspect and reaped: its queue drains
// as lost and the entry is forgotten, so a later Send starts fresh.
// Close is graceful: send queues flush under a drain deadline and each
// connection announces departure with a sentinel frame, so on the wire a
// graceful leave looks different from a crash — the receiver's
// OnDeparture hook fires for the former and never for the latter.
package neem

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"emcast/internal/faults"
	"emcast/internal/ids"
	"emcast/internal/peer"
)

// MaxFrame bounds accepted frame sizes.
const MaxFrame = 1 << 20

// sendQueueSize is the default per-peer user-space buffer; when full, the
// oldest frame is purged (NeEM's custom purging strategy).
const sendQueueSize = 1024

// maxConcurrentDials bounds simultaneous dial attempts across the whole
// transport, so mass reconnection after a fault heals is a trickle, not a
// storm.
const maxConcurrentDials = 16

// departureSentinel is the length-prefix value announcing a graceful
// leave. It cannot collide with a real frame: lengths above MaxFrame are
// protocol errors.
const departureSentinel = 0xFFFFFFFF

// Handler receives inbound frames. The frame is a view into the
// connection's read buffer, valid only for the duration of the call: a
// handler that keeps any of it must copy what it keeps (see wire.go for
// who owns the bytes at each stage).
type Handler func(from peer.ID, frame []byte)

// connState is an outbound connection's health.
type connState int32

const (
	// stateDialing: the first connection attempt is in flight.
	stateDialing connState = iota
	// stateUp: the connection is established and writable.
	stateUp
	// stateBackoff: the last attempt failed; the next dial is scheduled
	// with jittered exponential backoff.
	stateBackoff
	// stateSuspect: the dial budget is exhausted; the connection absorbs
	// (and loses) frames through a cooldown, then is forgotten.
	stateSuspect
)

// String returns the state's label.
func (s connState) String() string {
	switch s {
	case stateDialing:
		return "dialing"
	case stateUp:
		return "up"
	case stateBackoff:
		return "backoff"
	case stateSuspect:
		return "suspect"
	}
	return fmt.Sprintf("connState(%d)", int32(s))
}

// LostReason classifies why a frame was lost before (or instead of)
// transmission. The breakdown feeds neem_frames_lost{reason} obs counters.
type LostReason int

const (
	// LostFilter: the link filter rejected the frame.
	LostFilter LostReason = iota
	// LostUnknown: the destination is not in the address book.
	LostUnknown
	// LostPurge: purged from a full send queue (oldest-first).
	LostPurge
	// LostReap: discarded while the connection was suspect or when its
	// queue was torn down at reap/close.
	LostReap
	// LostWrite: a socket write failed or timed out; every frame of the
	// batch in flight is gone (the connection reconnects, the queue
	// survives).
	LostWrite
	// LostClosed: the transport was already closed.
	LostClosed
	// LostFault: dropped by the fault-injection plane (chaos testing).
	LostFault

	numLostReasons
)

// String returns the reason's obs label.
func (r LostReason) String() string {
	switch r {
	case LostFilter:
		return "filter"
	case LostUnknown:
		return "unknown_peer"
	case LostPurge:
		return "purge"
	case LostReap:
		return "reap"
	case LostWrite:
		return "write"
	case LostClosed:
		return "closed"
	case LostFault:
		return "fault"
	}
	return fmt.Sprintf("LostReason(%d)", int(r))
}

// LostReasons lists every reason in label order, for obs registration.
func LostReasons() []LostReason {
	out := make([]LostReason, numLostReasons)
	for i := range out {
		out[i] = LostReason(i)
	}
	return out
}

// Config configures a Transport.
type Config struct {
	// Self is this node's identifier.
	Self peer.ID
	// ListenAddr is the TCP address to accept connections on.
	ListenAddr string
	// Peers maps every remote node identifier to its address. (The
	// initial address book; AddPeer extends it at run time, so churned
	// deployments can introduce nodes after start-up. Discovery is out
	// of scope, as in the paper's testbed where membership is
	// bootstrapped explicitly.) The map is copied at Listen.
	Peers map[peer.ID]string
	// DialTimeout bounds one connection-establishment attempt. Zero
	// means 3 s.
	DialTimeout time.Duration
	// DialBackoffBase is the delay before the second dial attempt;
	// subsequent attempts double it (with jitter in [d/2, d)) up to
	// DialBackoffMax. Zero means 100 ms.
	DialBackoffBase time.Duration
	// DialBackoffMax caps the backoff delay and sets the suspect
	// cooldown. Zero means 3 s.
	DialBackoffMax time.Duration
	// DialAttempts is the consecutive-failure budget before a peer is
	// reaped. Zero means 5.
	DialAttempts int
	// WriteTimeout is the socket deadline of one batch of frames: a peer
	// that stops reading (stalled process, dead NAT entry) fails the
	// write and triggers a reconnect instead of wedging the write loop.
	// Inbound, it bounds how long a frame may stay incomplete once its
	// first byte has arrived (an idle connection has no deadline). Zero
	// means 10 s.
	WriteTimeout time.Duration
	// DrainTimeout bounds the graceful-close flush: each connection gets
	// this long to empty its queue and announce departure. Zero means 2 s.
	DrainTimeout time.Duration
	// QueueSize is the per-peer send-queue capacity. Zero means 1024.
	QueueSize int
	// Filter, when set, is consulted for every frame in both directions:
	// a frame from a to b is carried only when Filter(a, b) is true.
	// Dropped frames count as lost. This emulates network partitions and
	// crashed processes without OS-level tricks; the closure may read
	// shared mutable state (it is called concurrently from transport
	// goroutines), so a harness can flip partitions mid-run.
	Filter func(from, to peer.ID) bool
	// OnDeparture, when set, fires once per inbound connection whose
	// remote announced a graceful leave (the departure sentinel) before
	// the stream ended. Crashed peers never announce, so the hook
	// distinguishes leaves from crashes on the wire. Called from a
	// transport goroutine.
	OnDeparture func(from peer.ID)
	// Faults, when set, applies the fault-injection plane to inbound
	// frames (drop / extra delay / duplicate), sharing the rule
	// vocabulary with the simulator. Best-effort: transport goroutines
	// race on the draw stream, so rates hold but per-frame sequences do
	// not reproduce (see internal/faults).
	Faults *faults.Injector
}

func (cfg *Config) fill() {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.DialBackoffBase <= 0 {
		cfg.DialBackoffBase = 100 * time.Millisecond
	}
	if cfg.DialBackoffMax <= 0 {
		cfg.DialBackoffMax = 3 * time.Second
	}
	if cfg.DialAttempts <= 0 {
		cfg.DialAttempts = 5
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 2 * time.Second
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = sendQueueSize
	}
}

// Transport is a TCP-backed peer.Transport.
type Transport struct {
	cfg      Config
	listener net.Listener
	// handler is read once per inbound frame, without a lock.
	handler atomic.Pointer[Handler]

	// shared is the wire form of the last frame too large for a chunk,
	// queued by reference to every peer of its fan-out (see wireForm).
	sharedMu sync.Mutex
	shared   []byte

	framesSent atomic.Uint64
	bytesSent  atomic.Uint64
	bytesRecv  atomic.Uint64
	lost       [numLostReasons]atomic.Uint64

	reconnects atomic.Uint64
	reaped     atomic.Uint64
	depSent    atomic.Uint64
	depRecv    atomic.Uint64

	// stallUntil freezes the transport's read/write loops until the given
	// wall instant (UnixNano) — the live half of fault-stall injection.
	// Senders to a stalled peer feel genuine TCP backpressure and their
	// write deadlines, exactly the failure a frozen process produces.
	stallUntil atomic.Int64

	// drainCh closes when a graceful Close begins: write loops flush
	// their queues and announce departure. quit closes when the drain
	// window ends (or immediately on a forced path): every loop aborts.
	drainCh    chan struct{}
	quit       chan struct{}
	dialSem    chan struct{}
	dialCtx    context.Context
	dialCancel context.CancelFunc

	mu       sync.Mutex
	peers    map[peer.ID]string
	conns    map[peer.ID]*conn
	accepted map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup // every transport goroutine
	writers  sync.WaitGroup // write loops only, for the bounded drain wait
}

// conn is one outbound connection's state: the pending queue Send fills
// and the write loop that empties it. Loops exit via the transport's
// drain/quit channels.
type conn struct {
	to peer.ID
	q  sendq
	// wake holds a token whenever the queue went from empty to non-empty
	// since the write loop last looked: the loop sleeps on it and never
	// waits for more frames once it has one.
	wake  chan struct{}
	state atomic.Int32
	rng   uint64 // private splitmix64 state for backoff jitter
	wasUp bool   // a dial success after this is a reconnect

	// Write-loop scratch: the chunk list handed to the queue at the next
	// take, and the gathered write's argument list.
	spare, iov net.Buffers
}

func (c *conn) setState(s connState) { c.state.Store(int32(s)) }

// Listen starts a transport: it binds the listen address and serves inbound
// connections. The handler may be nil initially and set with SetHandler
// before traffic flows.
func Listen(cfg Config, handler Handler) (*Transport, error) {
	cfg.fill()
	l, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("neem: listen %s: %w", cfg.ListenAddr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &Transport{
		cfg:        cfg,
		listener:   l,
		drainCh:    make(chan struct{}),
		quit:       make(chan struct{}),
		dialSem:    make(chan struct{}, maxConcurrentDials),
		dialCtx:    ctx,
		dialCancel: cancel,
		peers:      make(map[peer.ID]string, len(cfg.Peers)),
		conns:      make(map[peer.ID]*conn),
		accepted:   make(map[net.Conn]struct{}),
	}
	for id, addr := range cfg.Peers {
		t.peers[id] = addr
	}
	t.SetHandler(handler)
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// SetHandler installs the inbound frame handler.
func (t *Transport) SetHandler(h Handler) { t.handler.Store(&h) }

// Addr returns the bound listen address.
func (t *Transport) Addr() net.Addr { return t.listener.Addr() }

// Local implements peer.Transport.
func (t *Transport) Local() peer.ID { return t.cfg.Self }

func (t *Transport) lose(r LostReason, n uint64) { t.lost[r].Add(n) }

// Send implements peer.Transport: the frame is copied into the peer's
// pending queue for asynchronous transmission and the slice is not
// retained (a frame too large for a chunk is copied once per fan-out, not
// once per peer: see wireForm); when QueueSize frames are pending the
// oldest is purged, and frames to unknown, filtered or unreachable peers
// are dropped — the protocol's lazy layer recovers via retransmission
// requests.
func (t *Transport) Send(to peer.ID, frame []byte) {
	if f := t.cfg.Filter; f != nil && !f(t.cfg.Self, to) {
		t.lose(LostFilter, 1)
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.lose(LostClosed, 1)
		return
	}
	c, ok := t.conns[to]
	if !ok {
		if _, known := t.peers[to]; !known {
			t.mu.Unlock()
			t.lose(LostUnknown, 1)
			return
		}
		c = &conn{
			to:   to,
			wake: make(chan struct{}, 1),
			rng:  uint64(t.cfg.Self)<<32 ^ uint64(to) ^ uint64(time.Now().UnixNano()),
		}
		t.conns[to] = c
		t.wg.Add(1)
		t.writers.Add(1)
		go t.writeLoop(c)
	}
	t.mu.Unlock()

	var purged, first bool
	if 4+len(frame) <= chunkSize {
		purged, first = c.q.push(frame, t.cfg.QueueSize)
	} else {
		purged, first = c.q.pushWire(t.wireForm(frame), t.cfg.QueueSize)
	}
	if purged {
		t.lose(LostPurge, 1)
	}
	if first {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// AddPeer adds (or updates) an address-book entry at run time, so nodes
// that appear after start-up — late joiners with ephemeral listen ports —
// become reachable without restarting the transport.
func (t *Transport) AddPeer(id peer.ID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[id] = addr
}

// Stall freezes the transport's read and write loops for d (measured on
// the wall clock), the live realisation of fault-stall injection: the
// process stays alive and its sockets stay open, but nothing moves, so
// remote senders see TCP backpressure and their write deadlines — exactly
// what a stop-the-world pause or a seized disk produces. Overlapping
// stalls extend, never shorten.
func (t *Transport) Stall(d time.Duration) {
	until := time.Now().Add(d).UnixNano()
	for {
		cur := t.stallUntil.Load()
		if cur >= until || t.stallUntil.CompareAndSwap(cur, until) {
			return
		}
	}
}

// stallWait blocks while the transport is stalled. It returns false when
// the transport shut down instead.
func (t *Transport) stallWait() bool {
	for {
		until := t.stallUntil.Load()
		now := time.Now().UnixNano()
		if until <= now {
			return true
		}
		tm := time.NewTimer(time.Duration(until - now))
		select {
		case <-tm.C:
		case <-t.quit:
			tm.Stop()
			return false
		}
	}
}

// Stats is a consistent-enough point-in-time view of transport activity.
// Counters are cumulative; QueueDepth is the instantaneous number of
// frames parked in user-space send queues across all live connections.
// FramesLost is always the sum of the Lost* breakdown.
type Stats struct {
	FramesSent uint64
	FramesLost uint64
	BytesSent  uint64 // payload + 4-byte length prefix, per frame
	// BytesReceived is what was read off inbound sockets after the
	// handshake: payload + 4-byte length prefix per frame, and the 4 bytes
	// of a departure announcement.
	BytesReceived uint64
	QueueDepth    int

	// FramesLost by reason (see LostReason).
	LostFilter  uint64
	LostUnknown uint64
	LostPurge   uint64
	LostReap    uint64
	LostWrite   uint64
	LostClosed  uint64
	LostFault   uint64

	// Self-healing activity: successful re-dials after a connection died,
	// peers reaped after exhausting their dial budget, and graceful
	// departures announced/observed.
	Reconnects     uint64
	Reaped         uint64
	DeparturesSent uint64
	DeparturesRecv uint64
}

// Add accumulates another transport's stats into s — the fleet
// aggregation the live harness does across peers (and across retired
// peers' final snapshots).
func (s *Stats) Add(o Stats) {
	s.FramesSent += o.FramesSent
	s.FramesLost += o.FramesLost
	s.BytesSent += o.BytesSent
	s.BytesReceived += o.BytesReceived
	s.QueueDepth += o.QueueDepth
	s.LostFilter += o.LostFilter
	s.LostUnknown += o.LostUnknown
	s.LostPurge += o.LostPurge
	s.LostReap += o.LostReap
	s.LostWrite += o.LostWrite
	s.LostClosed += o.LostClosed
	s.LostFault += o.LostFault
	s.Reconnects += o.Reconnects
	s.Reaped += o.Reaped
	s.DeparturesSent += o.DeparturesSent
	s.DeparturesRecv += o.DeparturesRecv
}

// Lost returns the breakdown counter for one reason.
func (s *Stats) Lost(r LostReason) uint64 {
	switch r {
	case LostFilter:
		return s.LostFilter
	case LostUnknown:
		return s.LostUnknown
	case LostPurge:
		return s.LostPurge
	case LostReap:
		return s.LostReap
	case LostWrite:
		return s.LostWrite
	case LostClosed:
		return s.LostClosed
	case LostFault:
		return s.LostFault
	}
	return 0
}

// Stats returns transport counters plus the current send-queue depth. It
// is safe to call concurrently with Send and the transport's goroutines,
// so a scrape handler can watch a live run.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	depth := 0
	for _, c := range t.conns {
		depth += c.q.depth()
	}
	t.mu.Unlock()
	s := Stats{
		FramesSent:     t.framesSent.Load(),
		BytesSent:      t.bytesSent.Load(),
		BytesReceived:  t.bytesRecv.Load(),
		QueueDepth:     depth,
		LostFilter:     t.lost[LostFilter].Load(),
		LostUnknown:    t.lost[LostUnknown].Load(),
		LostPurge:      t.lost[LostPurge].Load(),
		LostReap:       t.lost[LostReap].Load(),
		LostWrite:      t.lost[LostWrite].Load(),
		LostClosed:     t.lost[LostClosed].Load(),
		LostFault:      t.lost[LostFault].Load(),
		Reconnects:     t.reconnects.Load(),
		Reaped:         t.reaped.Load(),
		DeparturesSent: t.depSent.Load(),
		DeparturesRecv: t.depRecv.Load(),
	}
	s.FramesLost = s.LostFilter + s.LostUnknown + s.LostPurge + s.LostReap +
		s.LostWrite + s.LostClosed + s.LostFault
	return s
}

// health returns the state of every outbound connection, keyed by peer.
func (t *Transport) health() map[peer.ID]connState {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[peer.ID]connState, len(t.conns))
	for id, c := range t.conns {
		out[id] = connState(c.state.Load())
	}
	return out
}

// Close shuts the transport down gracefully: send queues get a drain
// window to flush, each live connection announces departure, then every
// goroutine is stopped and waited for. A second Close is a no-op.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()

	// Begin the drain: write loops flush and depart, dial attempts abort.
	close(t.drainCh)
	t.dialCancel()
	err := t.listener.Close()

	// Wait for the writers, bounded by the drain window (their flush
	// writes carry the same deadline, so this normally returns early).
	writersDone := make(chan struct{})
	go func() {
		t.writers.Wait()
		close(writersDone)
	}()
	tm := time.NewTimer(t.cfg.DrainTimeout + time.Second)
	select {
	case <-writersDone:
		tm.Stop()
	case <-tm.C:
	}

	// Force everything else down.
	close(t.quit)
	t.mu.Lock()
	inbound := make([]net.Conn, 0, len(t.accepted))
	for nc := range t.accepted {
		inbound = append(inbound, nc)
	}
	t.mu.Unlock()
	for _, nc := range inbound {
		nc.Close()
	}
	t.wg.Wait()
	return err
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		nc, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			nc.Close()
			return
		}
		t.accepted[nc] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(nc)
	}
}

// inbound is an accepted connection whose reads are counted: bytesRecv
// moves once per socket read, not once per frame.
type inbound struct {
	net.Conn
	recv *atomic.Uint64
}

func (c inbound) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv.Add(uint64(n))
	return n, err
}

func (t *Transport) readLoop(nc net.Conn) {
	defer t.wg.Done()
	defer func() {
		nc.Close()
		t.mu.Lock()
		delete(t.accepted, nc)
		t.mu.Unlock()
	}()
	// A dialer writes its handshake at once; one that connects and says
	// nothing must not hold this goroutine for ever.
	var hdr [4]byte
	nc.SetReadDeadline(time.Now().Add(t.cfg.WriteTimeout))
	if _, err := io.ReadFull(nc, hdr[:]); err != nil {
		return
	}
	nc.SetReadDeadline(time.Time{})
	from := peer.ID(binary.BigEndian.Uint32(hdr[:]))
	fr := newFrameReader(inbound{nc, &t.bytesRecv}, t.cfg.WriteTimeout)
	for {
		frame, departed, err := fr.next()
		if err != nil {
			return
		}
		// A stall freezes the loop between socket reads: the frames one
		// read brought in are a batch.
		if fr.waited && !t.stallWait() {
			return // shut down while stalled
		}
		if departed {
			// The goodbye is a wire frame like any other: a sender the
			// link filter has silenced (the harness's crash emulation) is
			// not heard, so filter-killed peers really do die without
			// announcing.
			if f := t.cfg.Filter; f == nil || f(from, t.cfg.Self) {
				t.depRecv.Add(1)
				if f := t.cfg.OnDeparture; f != nil {
					f(from)
				}
			}
			continue // keep reading until the remote closes
		}
		if f := t.cfg.Filter; f != nil && !f(from, t.cfg.Self) {
			continue // partitioned or crashed sender: drop on the floor
		}
		t.deliver(from, frame)
	}
}

// deliver hands one inbound frame to the handler, applying the fault
// plane's verdict first (live injection is receive-side: the receiver
// knows both endpoints, and delay/duplicate need the deserialized frame).
func (t *Transport) deliver(from peer.ID, frame []byte) {
	if inj := t.cfg.Faults; inj.Active() {
		v := inj.Frame(int(from), int(t.cfg.Self))
		if v.Drop {
			t.lose(LostFault, 1)
			return
		}
		if v.Delay > 0 {
			t.deliverLater(from, frame, v)
			return
		}
		if v.Duplicate {
			t.handleFrame(from, frame)
		}
	}
	t.handleFrame(from, frame)
}

// deliverLater is the fault plane's deferred (and possibly duplicated)
// delivery. The frame is the read buffer's and will be overwritten long
// before the timers fire: they get a copy. It is a method of its own so
// that only this path pays for the copy and the closures; in deliver the
// frame stays a view on the stack. The timer callback re-checks for
// shutdown so a drained transport never delivers late frames.
func (t *Transport) deliverLater(from peer.ID, frame []byte, v faults.Verdict) {
	own := append([]byte(nil), frame...)
	n := 1
	if v.Duplicate {
		n = 2
	}
	for i := 0; i < n; i++ {
		time.AfterFunc(v.Delay, func() {
			select {
			case <-t.quit:
			default:
				t.handleFrame(from, own)
			}
		})
	}
}

func (t *Transport) handleFrame(from peer.ID, frame []byte) {
	if h := *t.handler.Load(); h != nil {
		h(from, frame)
	}
}

// wireForm returns a frame too large for a chunk in wire form — its
// length prefix, then its bytes — in a buffer of its own that is never
// written again, so any number of queues may hold it. A fan-out hands
// the same bytes to Send once per peer: each call after the first finds
// them equal to the last buffer made and returns that buffer, so the
// frame is copied once per fan-out. Bytes are compared, not slices,
// because a caller may rewrite its buffer between two Sends. The memo is
// dropped once a write loop takes a batch holding it (see forgetShared).
func (t *Transport) wireForm(frame []byte) []byte {
	t.sharedMu.Lock()
	defer t.sharedMu.Unlock()
	if w := t.shared; len(w) == 4+len(frame) && bytes.Equal(w[4:], frame) {
		return w
	}
	w := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(frame)), uint32(len(frame)))
	w = append(w, frame...)
	t.shared = w
	return w
}

// forgetShared drops the wireForm memo if batch holds it: the fan-out
// that shared it is under way, and an idle transport must not keep its
// last large frame alive.
func (t *Transport) forgetShared(batch net.Buffers) {
	for _, b := range batch {
		if cap(b) <= chunkSize {
			continue // a coalescing chunk, never shared
		}
		t.sharedMu.Lock()
		if len(t.shared) > 0 && &t.shared[0] == &b[0] {
			t.shared = nil
		}
		t.sharedMu.Unlock()
	}
}

// errTransportDown signals a write loop to exit for good.
var errTransportDown = errors.New("neem: transport shutting down")

// writeLoop owns one outbound connection for the transport's lifetime (or
// until the peer is reaped): dial with backoff, serve the queue, and on a
// broken socket reconnect with the queue intact.
func (t *Transport) writeLoop(c *conn) {
	defer t.wg.Done()
	defer t.writers.Done()
	consecutive := 0
	for {
		nc := t.dialWithBackoff(c, &consecutive)
		if nc == nil {
			return // reaped, drained or shut down (dialWithBackoff cleaned up)
		}
		consecutive = 0
		if c.wasUp {
			t.reconnects.Add(1)
		}
		c.wasUp = true
		c.setState(stateUp)
		err := t.serveConn(c, nc)
		nc.Close()
		if errors.Is(err, errTransportDown) {
			return
		}
		// The socket died mid-stream: loop to re-dial. The queue keeps
		// absorbing Sends meanwhile (purging oldest when full).
		consecutive = 1
	}
}

// dialWithBackoff attempts to establish c's connection, sleeping with
// jittered exponential backoff between failures and acquiring the global
// dial slot for each attempt. It returns nil after the attempt budget is
// exhausted (the conn is reaped) or when the transport shuts down.
func (t *Transport) dialWithBackoff(c *conn, consecutive *int) net.Conn {
	for {
		if *consecutive >= t.cfg.DialAttempts {
			t.reap(c)
			return nil
		}
		if *consecutive > 0 {
			c.setState(stateBackoff)
			if !t.backoffSleep(c, *consecutive) {
				t.discard(c, true)
				return nil
			}
		} else {
			c.setState(stateDialing)
		}
		// The global dial slot bounds reconnect storms fleet-wide.
		select {
		case t.dialSem <- struct{}{}:
		case <-t.drainCh:
			t.discard(c, true)
			return nil
		case <-t.quit:
			t.discard(c, false)
			return nil
		}
		nc, err := t.dialOnce(c.to)
		<-t.dialSem
		if err != nil {
			select {
			case <-t.drainCh:
				t.discard(c, true)
				return nil
			default:
			}
			*consecutive++
			continue
		}
		return nc
	}
}

// dialOnce performs one bounded connection attempt plus the identifying
// handshake.
func (t *Transport) dialOnce(to peer.ID) (net.Conn, error) {
	t.mu.Lock()
	addr, known := t.peers[to]
	t.mu.Unlock()
	if !known {
		return nil, fmt.Errorf("neem: no address for peer %d", to)
	}
	d := net.Dialer{Timeout: t.cfg.DialTimeout}
	nc, err := d.DialContext(t.dialCtx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(t.cfg.Self))
	nc.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
	if _, err := nc.Write(hdr[:]); err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetWriteDeadline(time.Time{})
	return nc, nil
}

// backoffSleep waits the jittered exponential delay for the given attempt
// number. It returns false when the transport began shutting down.
func (t *Transport) backoffSleep(c *conn, attempt int) bool {
	d := t.cfg.DialBackoffBase << (attempt - 1)
	if d <= 0 || d > t.cfg.DialBackoffMax {
		d = t.cfg.DialBackoffMax
	}
	// Jitter uniformly into [d/2, d) so a fleet whose links died together
	// does not re-dial in lockstep.
	c.rng = ids.Mix64(c.rng)
	d = d/2 + time.Duration(c.rng%uint64(d/2+1))
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return true
	case <-t.drainCh:
		return false
	case <-t.quit:
		return false
	}
}

// serveConn pumps c's queue into the socket, one deadline-bounded write
// per batch: whatever is pending when the loop wakes goes out together,
// and the loop never waits for more, so a lone frame on an idle link
// leaves at once. It returns errTransportDown when the transport is
// draining or closed (after flushing and announcing departure on the
// drain path), or the write error when the socket died.
func (t *Transport) serveConn(c *conn, nc net.Conn) error {
	for {
		select {
		case <-c.wake:
			// A stalled transport leaves its frames pending, where
			// they count as queue depth and age out oldest-first.
			if !t.stallWait() {
				return errTransportDown
			}
			if _, err := t.writePending(c, nc, time.Now().Add(t.cfg.WriteTimeout)); err != nil {
				return err
			}
		case <-t.drainCh:
			t.flushAndDepart(c, nc)
			return errTransportDown
		case <-t.quit:
			return errTransportDown
		}
	}
}

// writePending takes everything queued on c and writes it as one batch
// under the deadline. A failed batch loses every frame in it; frames
// queued after the take are untouched and survive a reconnect. It
// returns the number of frames taken.
func (t *Transport) writePending(c *conn, nc net.Conn, deadline time.Time) (int, error) {
	batch, frames := c.q.take(c.spare)
	c.spare = batch
	if frames == 0 {
		return 0, nil
	}
	t.forgetShared(batch)
	nc.SetWriteDeadline(deadline)
	written, err := c.write(nc, batch)
	if err != nil {
		t.lose(LostWrite, uint64(frames))
	} else {
		t.framesSent.Add(uint64(frames))
		t.bytesSent.Add(uint64(written))
	}
	recycle(batch)
	return frames, err
}

// flushAndDepart empties the queue under the drain deadline, then
// announces the graceful leave with the departure sentinel.
func (t *Transport) flushAndDepart(c *conn, nc net.Conn) {
	deadline := time.Now().Add(t.cfg.DrainTimeout)
	for {
		n, err := t.writePending(c, nc, deadline)
		if err != nil {
			t.discard(c, true)
			return
		}
		if n == 0 {
			break
		}
	}
	nc.SetWriteDeadline(deadline)
	if err := writeDeparture(nc); err == nil {
		t.depSent.Add(1)
	}
}

// reap gives up on an unreachable peer: the connection turns suspect and
// absorbs (losing) frames for one cooldown — so an unreachable peer costs
// one dial budget per cooldown window, not one per frame — then the entry
// is forgotten so a later Send starts a fresh dial cycle.
func (t *Transport) reap(c *conn) {
	c.setState(stateSuspect)
	t.reaped.Add(1)
	tm := time.NewTimer(t.cfg.DialBackoffMax)
	defer tm.Stop()
	for {
		select {
		case <-c.wake:
			t.lose(LostReap, uint64(c.q.drop()))
		case <-tm.C:
			t.discard(c, true)
			return
		case <-t.drainCh:
			t.discard(c, true)
			return
		case <-t.quit:
			return
		}
	}
}

// discard removes the connection entry (a later Send re-dials) and, when
// accounted is set, counts the frames still queued as lost. Concurrent
// Sends holding the stale conn may enqueue a few more frames into the
// dead queue; they are lost silently, the unreliable-transport contract.
func (t *Transport) discard(c *conn, accounted bool) {
	t.mu.Lock()
	if !t.closed && t.conns[c.to] == c {
		delete(t.conns, c.to)
	}
	t.mu.Unlock()
	if n := c.q.drop(); accounted {
		t.lose(LostReap, uint64(n))
	}
}

// Clock is a wall clock relative to process start, implementing peer.Clock.
type Clock struct {
	start time.Time
}

// NewClock returns a clock anchored at now.
func NewClock() *Clock { return &Clock{start: time.Now()} }

// NewClockAt returns a clock anchored at an explicit instant, so a group
// of co-hosted peers can share one timeline and their traced event times
// stay directly comparable.
func NewClockAt(start time.Time) *Clock { return &Clock{start: start} }

// Now implements peer.Clock.
func (c *Clock) Now() time.Duration { return time.Since(c.start) }

// Timers implements peer.Timers over the Go runtime timers.
type Timers struct{}

// AfterFunc implements peer.Timers.
func (Timers) AfterFunc(d time.Duration, fn func()) peer.Timer {
	return realTimer{t: time.AfterFunc(d, fn)}
}

type realTimer struct {
	t *time.Timer
}

// Stop implements peer.Timer.
func (r realTimer) Stop() bool { return r.t.Stop() }

var (
	_ peer.Transport = (*Transport)(nil)
	_ peer.Clock     = (*Clock)(nil)
	_ peer.Timers    = Timers{}
)
