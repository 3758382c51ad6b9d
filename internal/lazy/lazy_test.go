package lazy

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"emcast/internal/emunet"
	"emcast/internal/ids"
	"emcast/internal/msg"
	"emcast/internal/peer"
	"emcast/internal/strategy"
	"emcast/internal/trace"
)

// fixture wires a Module to one zero-latency emulated network, whose
// clock and timers it uses and through which it sends, and records every
// frame the module sends.
type fixture struct {
	net    *emunet.Network
	sent   []sentFrame
	mod    *Module
	tracer *trace.Streaming
	recv   []received
}

// sentFrame is one recorded Send, with a copy of its bytes.
type sentFrame struct {
	to   peer.ID
	data []byte
}

// fixtureTransport is the module's peer.Transport: it records each frame
// and sends it on the fixture's network, where no node is attached.
type fixtureTransport struct {
	f    *fixture
	self peer.ID
}

// Send implements peer.Transport.
func (t *fixtureTransport) Send(to peer.ID, frame []byte) {
	t.f.sent = append(t.f.sent, sentFrame{to: to, data: append([]byte(nil), frame...)})
	t.f.net.Send(int(t.self), int(to), frame)
}

// Local implements peer.Transport.
func (t *fixtureTransport) Local() peer.ID { return t.self }

// advance runs the fixture's network for d of virtual time.
func (f *fixture) advance(d time.Duration) { f.net.Run(f.net.Now() + d) }

type received struct {
	id      ids.ID
	payload []byte
	round   int
	from    peer.ID
}

func (f *fixture) LReceive(id ids.ID, payload []byte, round int, from peer.ID) {
	f.recv = append(f.recv, received{id: id, payload: payload, round: round, from: from})
}

func newFixture(t *testing.T, self peer.ID, strat strategy.Strategy, cfg Config) *fixture {
	t.Helper()
	f := &fixture{
		net:    emunet.New(64, func(int, int) time.Duration { return 0 }, emunet.Config{}),
		tracer: trace.NewStreaming(),
	}
	env := &peer.Env{
		Transport: &fixtureTransport{f: f, self: self},
		Clock:     f.net,
		Timers:    f.net,
		RNG:       rand.New(rand.NewSource(1)),
	}
	f.mod = New(cfg, env, strat, f.tracer)
	f.mod.SetReceiver(f)
	return f
}

// framesOfKind decodes the sent frames and returns those of one kind.
func (f *fixture) framesOfKind(t *testing.T, kind msg.Kind) []msg.Frame {
	t.Helper()
	var out []msg.Frame
	for _, fr := range f.sent {
		decoded, err := msg.Decode(fr.data)
		if err != nil {
			t.Fatalf("module sent an undecodable frame: %v", err)
		}
		if decoded.Kind() == kind {
			out = append(out, decoded)
		}
	}
	return out
}

var testID = ids.ID{0xAA, 1}

func TestEagerSendsPayloadImmediately(t *testing.T) {
	f := newFixture(t, 1, &strategy.Flat{P: 1}, Config{})
	f.mod.LSend(testID, []byte("data"), 1, 2)

	msgs := f.framesOfKind(t, msg.KindMsg)
	if len(msgs) != 1 {
		t.Fatalf("MSG frames = %d, want 1", len(msgs))
	}
	m := msgs[0].(*msg.Msg)
	if m.ID != testID || m.Round != 1 || !bytes.Equal(m.Payload, []byte("data")) {
		t.Fatalf("MSG = %+v", m)
	}
	if ih := f.framesOfKind(t, msg.KindIHave); len(ih) != 0 {
		t.Fatal("eager send also advertised")
	}
	counts := f.tracer.Checkpoint().Counters
	if counts.EagerPayloads != 1 || counts.LazyPayloads != 0 {
		t.Fatalf("trace: eager=%d lazy=%d", counts.EagerPayloads, counts.LazyPayloads)
	}
}

func TestLazySendsIHaveAndServesIWant(t *testing.T) {
	f := newFixture(t, 1, &strategy.Flat{P: 0}, Config{})
	f.mod.LSend(testID, []byte("data"), 2, 2)

	if ih := f.framesOfKind(t, msg.KindIHave); len(ih) != 1 {
		t.Fatalf("IHAVE frames = %d, want 1", len(ih))
	}
	if m := f.framesOfKind(t, msg.KindMsg); len(m) != 0 {
		t.Fatal("lazy send transmitted payload")
	}

	// The peer requests the payload; the cache must serve it with the
	// original round number.
	f.mod.OnIWant(testID, 2)
	msgs := f.framesOfKind(t, msg.KindMsg)
	if len(msgs) != 1 {
		t.Fatalf("MSG after IWANT = %d, want 1", len(msgs))
	}
	m := msgs[0].(*msg.Msg)
	if m.Round != 2 || !bytes.Equal(m.Payload, []byte("data")) {
		t.Fatalf("served %+v", m)
	}
	counts := f.tracer.Checkpoint().Counters
	if counts.LazyPayloads != 1 || counts.EagerPayloads != 0 {
		t.Fatalf("trace: eager=%d lazy=%d", counts.EagerPayloads, counts.LazyPayloads)
	}
}

func TestIWantMissTraced(t *testing.T) {
	f := newFixture(t, 1, &strategy.Flat{P: 0}, Config{})
	f.mod.OnIWant(testID, 2) // nothing cached
	if m := f.framesOfKind(t, msg.KindMsg); len(m) != 0 {
		t.Fatal("miss served a payload")
	}
	if counts := f.tracer.Checkpoint().Counters; counts.RequestMisses != 1 {
		t.Fatalf("RequestMisses = %d, want 1", counts.RequestMisses)
	}
}

func TestIHaveTriggersImmediateRequest(t *testing.T) {
	f := newFixture(t, 1, &strategy.Flat{P: 0}, Config{})
	f.mod.OnIHave(testID, 7)
	// Flat requests immediately (FirstDelay 0) — fire the timer wheel.
	f.advance(0)
	iwants := f.framesOfKind(t, msg.KindIWant)
	if len(iwants) != 1 {
		t.Fatalf("IWANT frames = %d, want 1", len(iwants))
	}
	if f.sent[0].to != 7 {
		t.Fatalf("IWANT sent to %d, want the advertising source 7", f.sent[0].to)
	}
}

func TestRadiusDelaysFirstRequest(t *testing.T) {
	mon := func(p peer.ID) float64 { return float64(p) }
	strat := &strategy.Radius{Rho: 100, Monitor: monitorFunc(mon), T0: 50 * time.Millisecond}
	f := newFixture(t, 1, strat, Config{})
	f.mod.OnIHave(testID, 7)
	f.advance(49 * time.Millisecond)
	if len(f.framesOfKind(t, msg.KindIWant)) != 0 {
		t.Fatal("request issued before T0")
	}
	f.advance(2 * time.Millisecond)
	if len(f.framesOfKind(t, msg.KindIWant)) != 1 {
		t.Fatal("request not issued after T0")
	}
}

func TestRequestsRotateThroughSources(t *testing.T) {
	f := newFixture(t, 1, &strategy.Flat{P: 0}, Config{RequestPeriod: 100 * time.Millisecond})
	f.mod.OnIHave(testID, 10)
	f.mod.OnIHave(testID, 11)
	f.mod.OnIHave(testID, 12)
	f.advance(0) // first request
	f.advance(100 * time.Millisecond)
	f.advance(100 * time.Millisecond)
	targets := map[peer.ID]int{}
	for _, fr := range f.sent {
		targets[fr.to]++
	}
	for _, src := range []peer.ID{10, 11, 12} {
		if targets[src] != 1 {
			t.Fatalf("source %d asked %d times, want 1 (rotation): %v", src, targets[src], targets)
		}
	}
	// Exhausted rotation starts over.
	f.advance(100 * time.Millisecond)
	total := 0
	for _, n := range targets {
		total += n
	}
	if len(f.sent) != total+1 {
		t.Fatalf("rotation did not restart: %d frames", len(f.sent))
	}
}

func TestPayloadReceiptCancelsRequests(t *testing.T) {
	f := newFixture(t, 1, &strategy.Flat{P: 0}, Config{RequestPeriod: 100 * time.Millisecond})
	f.mod.OnIHave(testID, 10)
	f.advance(0)
	before := len(f.framesOfKind(t, msg.KindIWant))
	f.mod.OnMsg(testID, []byte("d"), 1, 10)
	f.advance(time.Second)
	after := len(f.framesOfKind(t, msg.KindIWant))
	if after != before {
		t.Fatalf("requests continued after payload received: %d -> %d", before, after)
	}
	if f.mod.PendingRequests() != 0 {
		t.Fatal("pending entry not cleared")
	}
}

func TestIHaveAfterReceiptIgnored(t *testing.T) {
	f := newFixture(t, 1, &strategy.Flat{P: 0}, Config{})
	f.mod.OnMsg(testID, []byte("d"), 1, 9)
	f.mod.OnIHave(testID, 10)
	f.advance(time.Second)
	if len(f.framesOfKind(t, msg.KindIWant)) != 0 {
		t.Fatal("requested a payload already received")
	}
}

func TestDuplicatePayloadCountedOnce(t *testing.T) {
	f := newFixture(t, 1, &strategy.Flat{P: 0}, Config{})
	f.mod.OnMsg(testID, []byte("d"), 1, 9)
	f.mod.OnMsg(testID, []byte("d"), 2, 8)
	f.mod.OnMsg(testID, []byte("d"), 3, 7)
	if len(f.recv) != 1 {
		t.Fatalf("upcalls = %d, want 1", len(f.recv))
	}
	if counts := f.tracer.Checkpoint().Counters; counts.Duplicates != 2 {
		t.Fatalf("duplicates = %d, want 2", counts.Duplicates)
	}
	if !f.mod.Received(testID) {
		t.Fatal("Received() false after receipt")
	}
}

func TestMaxRequestsBounds(t *testing.T) {
	f := newFixture(t, 1, &strategy.Flat{P: 0}, Config{
		RequestPeriod: 10 * time.Millisecond,
		MaxRequests:   3,
	})
	f.mod.OnIHave(testID, 10)
	f.advance(10 * time.Second)
	if got := len(f.framesOfKind(t, msg.KindIWant)); got != 3 {
		t.Fatalf("IWANTs = %d, want MaxRequests 3", got)
	}
	if f.mod.PendingRequests() != 0 {
		t.Fatal("pending entry not dropped after giving up")
	}
}

func TestCacheEviction(t *testing.T) {
	f := newFixture(t, 1, &strategy.Flat{P: 0}, Config{CacheCapacity: 2})
	gen := ids.NewGenerator(1)
	first := gen.Next()
	f.mod.LSend(first, []byte("a"), 1, 2)
	f.mod.LSend(gen.Next(), []byte("b"), 1, 2)
	f.mod.LSend(gen.Next(), []byte("c"), 1, 2)
	f.sent = nil
	f.mod.OnIWant(first, 2) // evicted: miss
	if len(f.framesOfKind(t, msg.KindMsg)) != 0 {
		t.Fatal("evicted payload served")
	}
	if counts := f.tracer.Checkpoint().Counters; counts.RequestMisses != 1 {
		t.Fatalf("misses = %d, want 1", counts.RequestMisses)
	}
}

func TestNewMessageUpcallCarriesMetadata(t *testing.T) {
	f := newFixture(t, 1, &strategy.Flat{P: 0}, Config{})
	f.mod.OnMsg(testID, []byte("payload"), 5, 42)
	if len(f.recv) != 1 {
		t.Fatal("no upcall")
	}
	r := f.recv[0]
	if r.id != testID || r.round != 5 || r.from != 42 || string(r.payload) != "payload" {
		t.Fatalf("upcall = %+v", r)
	}
}

func TestDefaultsFill(t *testing.T) {
	var cfg Config
	cfg.fill()
	if cfg.RequestPeriod != 400*time.Millisecond {
		t.Fatalf("default T = %v, want the paper's 400ms", cfg.RequestPeriod)
	}
	if cfg.MaxRequests <= 0 || cfg.CacheCapacity <= 0 {
		t.Fatal("defaults not filled")
	}
}

// monitorFunc adapts a function to monitor.Monitor without importing it in
// callers.
type monitorFunc func(p peer.ID) float64

func (f monitorFunc) Metric(p peer.ID) float64 { return f(p) }

// TestQuickLazyInvariants property-checks the module against random
// operation sequences: (1) at most one upcall per message id; (2) a
// received message never has pending requests; (3) pending never exceeds
// the number of distinct advertised-but-unreceived ids; (4) no operation
// sequence panics.
func TestQuickLazyInvariants(t *testing.T) {
	type op struct {
		Kind byte
		ID   uint8
		From uint8
	}
	f := func(ops []op) bool {
		f := newFixture(t, 1, &strategy.Flat{P: 0}, Config{RequestPeriod: 10 * time.Millisecond})
		upcalls := make(map[ids.ID]int)
		f.mod.SetReceiver(receiverFunc(func(id ids.ID, payload []byte, round int, from peer.ID) {
			upcalls[id]++
		}))
		advertised := make(map[ids.ID]bool)
		received := make(map[ids.ID]bool)
		for _, o := range ops {
			var id ids.ID
			id[0] = o.ID%16 + 1
			src := peer.ID(o.From%8 + 2)
			switch o.Kind % 4 {
			case 0:
				f.mod.OnIHave(id, src)
				advertised[id] = true
			case 1:
				f.mod.OnMsg(id, []byte{1}, 1, src)
				received[id] = true
			case 2:
				f.mod.OnIWant(id, src)
			case 3:
				f.advance(5 * time.Millisecond)
			}
			if f.mod.PendingRequests() > len(advertised) {
				return false
			}
		}
		for id, n := range upcalls {
			if n != 1 {
				return false
			}
			if !received[id] {
				return false
			}
		}
		for id := range received {
			if !f.mod.Received(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// receiverFunc adapts a function to the Receiver interface.
type receiverFunc func(id ids.ID, payload []byte, round int, from peer.ID)

func (f receiverFunc) LReceive(id ids.ID, payload []byte, round int, from peer.ID) {
	f(id, payload, round, from)
}
