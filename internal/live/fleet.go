package live

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"emcast"
	"emcast/internal/neem"
	"emcast/internal/obs"
)

// fleet is the bookkeeping of a set of in-process emcast.Peer nodes on
// loopback sockets, the population behind the Harness's TCP substrate:
// start N peers and wire their address books, a link filter that silences
// crashed peers and enforces partitions, stat retirement so fleet
// counters only grow as members churn, the obs instruments, and shutdown.
// One goroutine drives it; the locks are for transport goroutines (the
// filter), background closes and obs scrapes (the stats).
type fleet struct {
	// base is what every member's config shares; config fills the rest.
	base  emcast.PeerConfig
	seed  int64
	epoch time.Time // set by start; anchors every member's clock
	logf  func(format string, args ...interface{})

	mu       sync.Mutex
	peers    map[int]*emcast.Peer      // members currently up
	leaving  map[*emcast.Peer]struct{} // members whose Close has not returned
	addrs    map[emcast.NodeID]string  // every address ever bound
	retired  neem.Stats                // final stat snapshots of closed members
	closing  sync.WaitGroup
	obsFuncs []*obs.Func

	// Crash/partition state read by every member's link filter, on
	// transport goroutines — its own lock keeps filter evaluation off mu.
	fmu  sync.RWMutex
	dead map[emcast.NodeID]bool
	side map[emcast.NodeID]int // nil = no partition
}

func newFleet(base emcast.PeerConfig, seed int64, logf func(string, ...interface{})) *fleet {
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	return &fleet{
		base:    base,
		seed:    seed,
		logf:    logf,
		peers:   make(map[int]*emcast.Peer),
		leaving: make(map[*emcast.Peer]struct{}),
		addrs:   make(map[emcast.NodeID]string),
		dead:    make(map[emcast.NodeID]bool),
	}
}

// config completes the shared config for member self.
func (f *fleet) config(self int) emcast.PeerConfig {
	cfg := f.base
	cfg.Self = emcast.NodeID(self)
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.Seed = f.seed ^ int64(self+1)*0x2545f4914f6cdd1d
	cfg.LinkFilter = f.allow
	cfg.Epoch = f.epoch
	return cfg
}

// allow is the link filter shared by every member: frames are carried
// unless an endpoint is hard-killed or the endpoints sit on different
// partition sides (nodes on no listed side share the implicit extra one,
// the emulator's convention).
func (f *fleet) allow(from, to emcast.NodeID) bool {
	f.fmu.RLock()
	defer f.fmu.RUnlock()
	if f.dead[from] || f.dead[to] {
		return false
	}
	if f.side == nil {
		return true
	}
	return f.sideOf(from) == f.sideOf(to)
}

func (f *fleet) sideOf(n emcast.NodeID) int {
	if s, ok := f.side[n]; ok {
		return s
	}
	return -1
}

func (f *fleet) Partition(groups [][]int) {
	sides := make(map[emcast.NodeID]int, len(groups))
	for s, group := range groups {
		for _, n := range group {
			sides[emcast.NodeID(n)] = s
		}
	}
	f.logf("live: partition into %d explicit sides", len(groups))
	f.fmu.Lock()
	f.side = sides
	f.fmu.Unlock()
}

func (f *fleet) Heal() {
	f.logf("live: heal")
	f.fmu.Lock()
	f.side = nil
	f.fmu.Unlock()
}

// start brings up members 0..n-1 on ephemeral ports, each seeded with all
// the others, then wires every address book once all listeners are bound.
func (f *fleet) start(n int) error {
	f.epoch = time.Now()
	for i := 0; i < n; i++ {
		cfg := f.config(i)
		cfg.Bootstrap = make([]emcast.NodeID, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				cfg.Bootstrap = append(cfg.Bootstrap, emcast.NodeID(j))
			}
		}
		p, err := emcast.NewPeer(cfg)
		if err != nil {
			f.closeAll()
			return fmt.Errorf("peer %d: %v", i, err)
		}
		f.peers[i] = p // unlocked: nothing scrapes the fleet before start returns
		f.addrs[emcast.NodeID(i)] = p.Addr()
	}
	for i, p := range f.peers {
		for id, addr := range f.addrs {
			if emcast.NodeID(i) != id {
				p.AddPeer(id, addr)
			}
		}
	}
	return nil
}

// Join starts provisioned member node on an ephemeral port, makes it
// reachable everywhere, and introduces it through contact — the Join
// protocol, exactly as a fresh machine would enter. A member that fails
// to start is logged and stays down.
func (f *fleet) Join(node, contact int) {
	cfg := f.config(node)
	cfg.Bootstrap = []emcast.NodeID{} // outside the overlay until Join
	f.mu.Lock()
	cfg.Peers = make(map[emcast.NodeID]string, len(f.addrs))
	for id, addr := range f.addrs {
		cfg.Peers[id] = addr
	}
	f.mu.Unlock()
	p, err := emcast.NewPeer(cfg)
	if err != nil {
		f.logf("live: joiner %d failed to start: %v", node, err)
		return
	}

	f.mu.Lock()
	others := make([]*emcast.Peer, 0, len(f.peers))
	for _, q := range f.peers {
		others = append(others, q)
	}
	f.peers[node] = p
	f.addrs[emcast.NodeID(node)] = p.Addr()
	f.mu.Unlock()
	for _, q := range others {
		q.AddPeer(emcast.NodeID(node), p.Addr())
	}
	f.logf("live: node %d joining via %d", node, contact)
	p.Join(emcast.NodeID(contact))
}

// Kill removes one member: gracefully (leave — the peer drains and
// announces its departure) or hard (crash — the link filter silences it
// first, goodbyes included, so the fleet sees it stop responding rather
// than say goodbye). Either way the process state is torn down in the
// background.
func (f *fleet) Kill(node int, leave bool) {
	f.mu.Lock()
	p := f.peers[node]
	if p != nil {
		delete(f.peers, node)
		f.leaving[p] = struct{}{}
	}
	f.mu.Unlock()
	if p == nil {
		return
	}
	if !leave {
		f.fmu.Lock()
		f.dead[emcast.NodeID(node)] = true
		f.fmu.Unlock()
	}
	f.logf("live: node %d %s", node, map[bool]string{true: "leaves", false: "crashes"}[leave])
	f.closeAndRetire(p)
}

// closeAndRetire closes a member already moved from peers to leaving, in
// the background. It stays on the books while it drains and is retired
// when Close returns, so the drain's activity — departure announcements
// above all — is counted once and the fleet counters never dip.
func (f *fleet) closeAndRetire(p *emcast.Peer) {
	f.closing.Add(1)
	go func() {
		defer f.closing.Done()
		p.Close()
		f.mu.Lock()
		delete(f.leaving, p)
		s := p.TransportStats()
		// Queued frames are not carried over — the close path accounts
		// them as lost on its own.
		s.QueueDepth = 0
		f.retired.Add(s)
		f.mu.Unlock()
	}()
}

// closeAll closes every remaining member and waits for every background
// close, Kill's included.
func (f *fleet) closeAll() {
	f.mu.Lock()
	for id, p := range f.peers {
		delete(f.peers, id)
		f.leaving[p] = struct{}{}
		f.closeAndRetire(p)
	}
	f.mu.Unlock()
	f.closing.Wait()
}

// LiveAll returns the members currently up, ascending.
func (f *fleet) LiveAll() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int, 0, len(f.peers))
	for id := range f.peers {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// peer returns member node, or nil when it is not up (dead, or a joiner
// that has not entered).
func (f *fleet) peer(node int) *emcast.Peer {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.peers[node]
}

func (f *fleet) Failed(node int) bool { return f.peer(node) == nil }

// stats aggregates transport stats across the whole fleet, leaving and
// retired members included, so the counters only grow as members churn.
func (f *fleet) stats() neem.Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	agg := f.retired
	for _, p := range f.peers {
		agg.Add(p.TransportStats())
	}
	for p := range f.leaving {
		agg.Add(p.TransportStats())
	}
	return agg
}

// attachObs registers fleet-wide callback instruments; callbacks walk the
// live members under the fleet lock, so a scrape sees a consistent view
// of a running fleet. A nil registry registers nothing.
func (f *fleet) attachObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	stat := func(pick func(neem.Stats) uint64) func() float64 {
		return func() float64 { return float64(pick(f.stats())) }
	}
	f.obsFuncs = []*obs.Func{
		reg.CounterFunc("live_frames_sent_total", "frames written to fleet sockets",
			stat(func(s neem.Stats) uint64 { return s.FramesSent })),
		reg.CounterFunc("live_frames_lost_total", "frames lost before transmission (purged, filtered or unroutable)",
			stat(func(s neem.Stats) uint64 { return s.FramesLost })),
		reg.CounterFunc("live_bytes_sent_total", "wire bytes written by the fleet",
			stat(func(s neem.Stats) uint64 { return s.BytesSent })),
		reg.CounterFunc("live_bytes_received_total", "wire bytes read by the fleet",
			stat(func(s neem.Stats) uint64 { return s.BytesReceived })),
		reg.GaugeFunc("live_send_queue_depth", "frames parked in fleet send queues",
			func() float64 { return float64(f.stats().QueueDepth) }),
		reg.GaugeFunc("live_peers", "peers currently up",
			func() float64 { return float64(len(f.LiveAll())) }),
		reg.CounterFunc("neem_reconnects_total", "connections re-dialed after dying under the fleet",
			stat(func(s neem.Stats) uint64 { return s.Reconnects })),
		reg.CounterFunc("neem_conns_reaped_total", "connections reaped after exhausting their dial budget",
			stat(func(s neem.Stats) uint64 { return s.Reaped })),
		reg.CounterFunc("neem_departures_total", "graceful departures announced by closing fleet peers",
			stat(func(s neem.Stats) uint64 { return s.DeparturesSent }),
			obs.Label{Key: "direction", Value: "sent"}),
		reg.CounterFunc("neem_departures_total", "graceful departures heard from remote peers",
			stat(func(s neem.Stats) uint64 { return s.DeparturesRecv }),
			obs.Label{Key: "direction", Value: "received"}),
	}
	// One counter per loss reason: neem_frames_lost{reason} sums to
	// live_frames_lost_total, the per-cause split chaos assertions read.
	for _, r := range neem.LostReasons() {
		f.obsFuncs = append(f.obsFuncs, reg.CounterFunc(
			"neem_frames_lost", "frames lost before transmission, by reason",
			stat(func(s neem.Stats) uint64 { return s.Lost(r) }),
			obs.Label{Key: "reason", Value: r.String()}))
	}
}

// releaseObs detaches the fleet instruments: counter finals fold into
// residuals, gauges drop. Idempotent.
func (f *fleet) releaseObs() {
	for _, fn := range f.obsFuncs {
		fn.Release()
	}
	f.obsFuncs = nil
}
