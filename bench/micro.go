package main

import (
	"errors"
	"flag"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"emcast/internal/core"
	"emcast/internal/emunet"
	"emcast/internal/faults"
	"emcast/internal/gossip"
	"emcast/internal/ids"
	"emcast/internal/lazy"
	"emcast/internal/membership"
	"emcast/internal/msg"
	"emcast/internal/neem"
	"emcast/internal/peer"
	"emcast/internal/peertest"
	"emcast/internal/strategy"
	"emcast/internal/topology"
	"emcast/internal/trace"
)

// Isolated layer drivers: one call pattern per public function that sits
// on a hot path, timed with testing.Benchmark from outside the product.
// They are workload-independent; every traced run repeats them so their
// numbers travel with the ledger they explain.

// microBenchtime is short because there are two dozen drivers and the
// figures are per-layer indications, not gated metrics.
const microBenchtime = "40ms"

// discard is a peer.Transport that drops every frame: the drivers time a
// layer, not what lies below it. (peertest.Mesh keeps every frame it is
// handed, which would grow without bound under a benchmark loop.)
type discard struct{ self peer.ID }

func (d discard) Send(peer.ID, []byte) {}
func (d discard) Local() peer.ID       { return d.self }

func microEnv(self peer.ID, clock *peertest.Sim) *peer.Env {
	return &peer.Env{Transport: discard{self}, Clock: clock, Timers: clock, RNG: rand.New(rand.NewSource(int64(self) + 1))}
}

var microSink int

// runMicros returns every isolated driver's figure by metric name.
func runMicros() (map[string]float64, error) {
	testing.Init()
	// The flag exists once testing.Init has run; the value is a constant.
	_ = flag.Set("test.benchtime", microBenchtime)
	out := map[string]float64{}
	ns := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		out[name] = float64(r.T.Nanoseconds()) / float64(max(r.N, 1))
	}
	us := func(name string, fn func(b *testing.B)) {
		ns(name, fn)
		out[name] /= 1e3
	}

	gen := ids.NewGenerator(42)
	payload := make([]byte, simPayload)
	clock := peertest.NewSim()

	// msg: the wire codec.
	frame := (&msg.Msg{ID: gen.Next(), Round: 3, Payload: payload}).Encode(nil)
	ihave := (&msg.IHave{ID: gen.Next()}).Encode(nil)
	ns("msg.encode_msg_ns", func(b *testing.B) {
		m := &msg.Msg{ID: gen.Next(), Round: 3, Payload: payload}
		buf := make([]byte, 0, len(frame))
		for i := 0; i < b.N; i++ {
			buf = m.Encode(buf[:0])
		}
		microSink += len(buf)
	})
	ns("msg.decode_msg_ns", func(b *testing.B) {
		var p msg.Parsed
		for i := 0; i < b.N; i++ {
			if p.Decode(frame) != nil {
				b.Fatal("decode")
			}
		}
	})
	ns("msg.decode_ihave_ns", func(b *testing.B) {
		var p msg.Parsed
		for i := 0; i < b.N; i++ {
			if p.Decode(ihave) != nil {
				b.Fatal("decode")
			}
		}
	})

	// ids: the dedup set at capacity, where every insert evicts, and the
	// id-keyed map the pending requests live in.
	full := ids.NewSet(65536)
	for i := 0; i < 65536; i++ {
		full.Add(gen.Next())
	}
	ns("ids.set_add_evicting_ns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			full.Add(gen.Next())
		}
	})
	ns("ids.set_contains_miss_ns", func(b *testing.B) {
		absent := ids.NewGenerator(7)
		for i := 0; i < b.N; i++ {
			if full.Contains(absent.Next()) {
				microSink++
			}
		}
	})
	ns("ids.map_put_delete_ns", func(b *testing.B) {
		m := ids.NewMap[int](0)
		for i := 0; i < b.N; i++ {
			id := gen.Next()
			m.Put(id, i)
			m.Delete(id)
		}
	})

	// membership: the gossip fanout drawn from a full view.
	view := membership.NewView(membership.DefaultConfig(), 0, rand.New(rand.NewSource(1)))
	others := make([]peer.ID, 15)
	for i := range others {
		others[i] = peer.ID(i + 1)
	}
	view.Seed(others)
	ns("membership.sample_ns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			microSink += len(view.Sample(11))
		}
	})

	// emunet: one frame through send and step, one timer through arm and
	// fire, on an otherwise empty two-node network.
	net := emunet.New(2, func(int, int) time.Duration { return time.Millisecond }, emunet.Config{PooledFrames: true})
	net.Register(0, emunet.HandlerFunc(func(int, []byte) {}))
	net.Register(1, emunet.HandlerFunc(func(int, []byte) {}))
	ns("emunet.send_step_ns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net.Send(0, 1, frame)
			net.Step()
		}
	})
	ns("emunet.timer_arm_fire_ns", func(b *testing.B) {
		fn := func() {}
		for i := 0; i < b.N; i++ {
			net.AfterFunc(time.Millisecond, fn)
			net.Step()
		}
	})

	// topology: a lookup in a resident matrix, and the Dijkstra a row costs
	// when a byte budget has evicted it.
	tp := topology.DefaultParams().Scaled(2)
	tp.Clients = 1000
	matrix := topology.Generate(tp).ClientMatrix()
	matrix.Materialize()
	ns("topology.latency_lookup_ns", func(b *testing.B) {
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < b.N; i++ {
			microSink += int(matrix.Latency(rng.Intn(1000), rng.Intn(1000)))
		}
	})
	matrix.SetBudget(1) // keeps only the row in use: every other row is a recompute
	us("topology.row_recompute_us", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			microSink += int(matrix.Latency(i%1000, (i+1)%1000))
		}
	})

	// trace: the streaming fold a run pays per delivery and per payload, and
	// the checkpoint a phase boundary pays.
	stream := trace.NewStreaming()
	stream.Presize(1000)
	ns("trace.fold_delivered_ns", func(b *testing.B) {
		var id ids.ID
		for i := 0; i < b.N; i++ {
			if i%1000 == 0 {
				id = gen.Next()
				stream.Multicast(0, id, time.Duration(i))
			}
			stream.Delivered(peer.ID(i%1000), id, time.Duration(i+50))
		}
	})
	ns("trace.fold_payload_sent_ns", func(b *testing.B) {
		id := gen.Next()
		stream.Multicast(0, id, 0)
		for i := 0; i < b.N; i++ {
			stream.PayloadSent(peer.ID(i%1000), peer.ID((i*7+1)%1000), id, len(frame), true)
		}
	})
	us("trace.checkpoint_us", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			microSink += stream.Checkpoint().TotalPayloads
		}
	})

	// strategy: the ranked decision consulted per send.
	best := map[peer.ID]bool{}
	for i := 0; i < 200; i++ {
		best[peer.ID(i*5)] = true
	}
	ranked := &strategy.Ranked{Self: 1, IsBest: func(p peer.ID) bool { return best[p] }}
	ns("strategy.ranked_eager_ns", func(b *testing.B) {
		var id ids.ID
		for i := 0; i < b.N; i++ {
			if ranked.Eager(id, 1, peer.ID(i%1000)) {
				microSink++
			}
		}
	})

	// lazy, gossip, core: the protocol path of one frame, over a transport
	// that discards.
	eager := &strategy.Flat{P: 1, RNG: rand.New(rand.NewSource(1))}
	never := &strategy.Flat{P: 0, RNG: rand.New(rand.NewSource(1))}
	ns("lazy.on_msg_duplicate_ns", func(b *testing.B) {
		m := lazy.New(lazy.Config{}, microEnv(1, clock), eager, nil)
		id := gen.Next()
		m.OnMsg(id, payload, 1, 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.OnMsg(id, payload, 1, 2)
		}
	})
	ns("lazy.on_msg_first_ns", func(b *testing.B) {
		m := lazy.New(lazy.Config{}, microEnv(1, clock), eager, nil)
		for i := 0; i < b.N; i++ {
			m.OnMsg(gen.Next(), payload, 1, 2)
		}
	})
	ns("lazy.ihave_iwant_cycle_ns", func(b *testing.B) {
		holder := lazy.New(lazy.Config{}, microEnv(1, clock), never, nil)
		asker := lazy.New(lazy.Config{}, microEnv(2, clock), never, nil)
		for i := 0; i < b.N; i++ {
			id := gen.Next()
			holder.LSend(id, payload, 1, 2) // caches, advertises
			asker.OnIHave(id, 1)            // queues the request
			clock.Advance(time.Millisecond) // its timer fires: IWANT
			holder.OnIWant(id, 2)           // served from the cache
			asker.OnMsg(id, payload, 1, 1)  // clears the request
		}
	})
	ns("gossip.lreceive_forward_ns", func(b *testing.B) {
		sender := lazy.New(lazy.Config{}, microEnv(0, clock), eager, nil)
		g := gossip.New(gossip.Config{Fanout: 11, MaxRounds: 8}, 0, gen, view, sender, nil, clock, nil)
		for i := 0; i < b.N; i++ {
			g.LReceive(gen.Next(), payload, 1, 2)
		}
	})
	ns("core.handle_frame_duplicate_ns", func(b *testing.B) {
		node := core.NewNode(core.DefaultConfig(), microEnv(1, clock), core.Options{Strategy: eager})
		node.SeedView(others)
		node.HandleFrame(2, frame)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			node.HandleFrame(2, frame)
		}
	})

	// faults: the verdict an active rule costs per frame.
	inj := faults.New(1)
	// The rule is a constant and valid.
	_ = inj.Install(faults.LinkRule{Drop: 0.01})
	ns("faults.frame_verdict_ns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if inj.Frame(i%16, (i+1)%16).Drop {
				microSink++
			}
		}
	})

	return out, neemPair(out)
}

// neemPair measures the bare transport with no protocol above it: two
// neem.Transports on loopback, one connection each way.
func neemPair(out map[string]float64) error {
	var recvA, recvB atomic.Int64
	var echo atomic.Bool
	var b *neem.Transport
	a, err := neem.Listen(neem.Config{Self: 0, ListenAddr: "127.0.0.1:0"}, func(peer.ID, []byte) { recvA.Add(1) })
	if err != nil {
		return err
	}
	defer a.Close()
	b, err = neem.Listen(neem.Config{Self: 1, ListenAddr: "127.0.0.1:0"}, func(from peer.ID, frame []byte) {
		if echo.Load() {
			b.Send(from, frame)
		}
		recvB.Add(1)
	})
	if err != nil {
		return err
	}
	defer b.Close()
	a.AddPeer(1, b.Addr().String())
	b.AddPeer(0, a.Addr().String())

	// stream sends n frames keeping at most 256 queued, so the send queue
	// never purges, and returns once all arrived.
	stalled := errors.New("neem pair: frames stopped arriving on loopback")
	stream := func(n int, frame []byte) (used, error) {
		start := recvB.Load()
		before := takeUsage()
		deadline := time.Now().Add(settleLimit)
		for i := 0; i < n; i++ {
			for int64(i)-(recvB.Load()-start) >= 256 {
				if time.Now().After(deadline) {
					return used{}, stalled
				}
				time.Sleep(20 * time.Microsecond)
			}
			a.Send(1, frame)
		}
		for recvB.Load()-start < int64(n) {
			if time.Now().After(deadline) {
				return used{}, stalled
			}
			time.Sleep(20 * time.Microsecond)
		}
		return takeUsage().since(before), nil
	}
	small, bulk := make([]byte, 64), make([]byte, 32<<10)
	if _, err := stream(256, small); err != nil { // dials the connection
		return err
	}
	u, err := stream(pairSmallFrames, small)
	if err != nil {
		return err
	}
	out["neem.pair_frames_per_s"] = pairSmallFrames / u.wall.Seconds()
	out["neem.pair_cpu_us_per_frame"] = float64(u.cpu) / float64(time.Microsecond) / pairSmallFrames
	if u, err = stream(pairBulkFrames, bulk); err != nil {
		return err
	}
	out["neem.pair_mb_per_s"] = pairBulkFrames * float64(len(bulk)) / 1e6 / u.wall.Seconds()

	echo.Store(true)
	var rtts []float64
	for i := 0; i <= pairRoundTrips; i++ {
		seen := recvA.Load()
		start := time.Now()
		a.Send(1, small)
		for recvA.Load() == seen {
			if time.Since(start) > settleLimit {
				return stalled
			}
			runtime.Gosched()
		}
		if i > 0 { // the first round trip dials the way back
			rtts = append(rtts, float64(time.Since(start))/float64(time.Microsecond))
		}
	}
	out["neem.pair_rtt_us"] = summarize(rtts).Median
	return nil
}

const (
	pairSmallFrames = 20000
	pairBulkFrames  = 2000
	pairRoundTrips  = 1000
)
