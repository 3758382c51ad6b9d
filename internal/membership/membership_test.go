package membership

import (
	"math/rand"
	randv2 "math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"emcast/internal/peer"
)

func newView(self peer.ID, size int) *View {
	return NewView(Config{ViewSize: size, ShuffleSize: size/2 + 1}, self, peer.Stream(int64(self)+1, self, peer.StreamMembership))
}

func TestAddBasics(t *testing.T) {
	v := newView(0, 5)
	if v.Add(0) {
		t.Fatal("view accepted self")
	}
	if v.Add(peer.None) {
		t.Fatal("view accepted the None sentinel")
	}
	if !v.Add(1) || v.Add(1) {
		t.Fatal("duplicate handling wrong")
	}
	if !v.Contains(1) || v.Contains(2) {
		t.Fatal("Contains wrong")
	}
	if v.Len() != 1 {
		t.Fatalf("Len = %d", v.Len())
	}
}

func TestViewNeverExceedsCapacity(t *testing.T) {
	v := newView(0, 7)
	for i := peer.ID(1); i <= 100; i++ {
		v.Add(i)
		if v.Len() > 7 {
			t.Fatalf("view grew to %d > capacity 7", v.Len())
		}
	}
	if v.Len() != 7 {
		t.Fatalf("Len = %d, want 7", v.Len())
	}
}

func TestRemove(t *testing.T) {
	v := newView(0, 5)
	v.Seed([]peer.ID{1, 2, 3})
	v.Remove(2)
	if v.Contains(2) || v.Len() != 2 {
		t.Fatal("Remove failed")
	}
	v.Remove(99) // absent: no-op
	if v.Len() != 2 {
		t.Fatal("Remove of absent peer changed the view")
	}
}

func TestSampleDistinctAndFromView(t *testing.T) {
	v := newView(0, 15)
	for i := peer.ID(1); i <= 15; i++ {
		v.Add(i)
	}
	for trial := 0; trial < 100; trial++ {
		s := v.Sample(11)
		if len(s) != 11 {
			t.Fatalf("sample size = %d", len(s))
		}
		seen := make(map[peer.ID]bool)
		for _, p := range s {
			if seen[p] {
				t.Fatal("sample contains duplicates")
			}
			if !v.Contains(p) {
				t.Fatal("sample contains a peer not in the view")
			}
			seen[p] = true
		}
	}
	if got := v.Sample(100); len(got) != 15 {
		t.Fatalf("oversized sample = %d, want full view", len(got))
	}
	if got := v.Sample(0); got != nil {
		t.Fatalf("zero sample = %v, want nil", got)
	}
}

func TestSampleUniformity(t *testing.T) {
	// Each of 15 peers should appear in a Sample(5) with p=1/3; over
	// 9000 samples each expects ~3000 appearances.
	v := newView(0, 15)
	for i := peer.ID(1); i <= 15; i++ {
		v.Add(i)
	}
	counts := make(map[peer.ID]int)
	for trial := 0; trial < 9000; trial++ {
		for _, p := range v.Sample(5) {
			counts[p]++
		}
	}
	for i := peer.ID(1); i <= 15; i++ {
		if counts[i] < 2500 || counts[i] > 3500 {
			t.Fatalf("peer %d sampled %d times, want ~3000 (uniformity)", i, counts[i])
		}
	}
}

func TestShufflePartnerAndSample(t *testing.T) {
	v := newView(0, 10)
	if v.ShufflePartner() != peer.None {
		t.Fatal("empty view returned a partner")
	}
	v.Seed([]peer.ID{1, 2, 3})
	p := v.ShufflePartner()
	if !v.Contains(p) {
		t.Fatal("partner not from view")
	}
	s := v.ShuffleSample(nil)
	foundSelf := false
	for _, id := range s {
		if id == 0 {
			foundSelf = true
		}
	}
	if !foundSelf {
		t.Fatal("shuffle sample must include self so addresses propagate")
	}
}

func TestMergeExchangeSwapsSentEntries(t *testing.T) {
	v := newView(0, 4)
	v.Seed([]peer.ID{1, 2, 3, 4})
	// We sent {1, 2} to the peer; it sent {5, 6} back. The view is full,
	// so 5 and 6 must replace exactly 1 and 2.
	v.MergeExchange([]peer.ID{5, 6}, []peer.ID{1, 2})
	for _, want := range []peer.ID{3, 4, 5, 6} {
		if !v.Contains(want) {
			t.Fatalf("view missing %d after exchange: %v", want, v.Peers())
		}
	}
	if v.Contains(1) || v.Contains(2) {
		t.Fatalf("sent entries not evicted: %v", v.Peers())
	}
}

func TestMergeExchangeIgnoresSelfAndDuplicates(t *testing.T) {
	v := newView(0, 4)
	v.Seed([]peer.ID{1, 2})
	v.MergeExchange([]peer.ID{0, 1, 9}, nil)
	if v.Contains(0) {
		t.Fatal("merged self")
	}
	if !v.Contains(9) || v.Len() != 3 {
		t.Fatalf("merge wrong: %v", v.Peers())
	}
}

func TestMergeExchangeFallsBackToRandomEviction(t *testing.T) {
	v := newView(0, 3)
	v.Seed([]peer.ID{1, 2, 3})
	// Nothing we sent is in the view anymore: random eviction must make
	// room, never exceeding capacity.
	v.MergeExchange([]peer.ID{7, 8}, []peer.ID{99})
	if v.Len() != 3 {
		t.Fatalf("Len = %d, want 3", v.Len())
	}
	if !v.Contains(7) || !v.Contains(8) {
		t.Fatalf("received entries dropped: %v", v.Peers())
	}
}

// viewModel is the reference the view is checked against: a plain slice
// written from the protocol's rules with its own identically seeded
// stream, drawn through math/rand/v2's IntN (on 64-bit platforms the
// view's bounded draw), so every random eviction and every sample draws
// the same slot in both.
type viewModel struct {
	self  peer.ID
	size  int
	rng   *randv2.Rand
	peers []peer.ID
}

// streamSource reads a stream as a math/rand/v2 Source.
type streamSource struct{ r *rand.Rand }

func (s streamSource) Uint64() uint64 { return s.r.Uint64() }

func (m *viewModel) drop(i int) {
	m.peers[i] = m.peers[len(m.peers)-1]
	m.peers = m.peers[:len(m.peers)-1]
}

// sample draws f peers by a Fisher–Yates prefix over the slots: slot i
// swaps with a slot drawn uniformly from i on and joins the sample.
func (m *viewModel) sample(f int) []peer.ID {
	var out []peer.ID
	for i := 0; i < f && i < len(m.peers); i++ {
		j := i + m.rng.IntN(len(m.peers)-i)
		m.peers[i], m.peers[j] = m.peers[j], m.peers[i]
		out = append(out, m.peers[i])
	}
	return out
}

// mergeExchange follows the Cyclon rule: a full view drops the first of
// the entries it sent that it still holds, else a random one.
func (m *viewModel) mergeExchange(received, sent []peer.ID) {
	var pool []peer.ID
	for _, p := range sent {
		if p != m.self {
			pool = append(pool, p)
		}
	}
	for _, p := range received {
		if p == m.self || p == peer.None || slices.Contains(m.peers, p) {
			continue
		}
		if len(m.peers) >= m.size {
			victim := -1
			for victim < 0 && len(pool) > 0 {
				victim = slices.Index(m.peers, pool[0])
				pool = pool[1:]
			}
			if victim < 0 {
				victim = m.rng.IntN(len(m.peers))
			}
			m.drop(victim)
		}
		m.peers = append(m.peers, p)
	}
}

// TestQuickViewInvariants property-checks random programs of Add, Remove,
// MergeExchange, Seed and SampleInto against viewModel: after every op the
// view must hold exactly the model's peers in the model's order, a sample
// must equal the model's, Contains must agree with the peers for every
// probed peer, and the view never exceeds capacity, holds self or holds a
// duplicate.
func TestQuickViewInvariants(t *testing.T) {
	const self, size = 3, 8
	f := func(ops []uint32) bool {
		v := newView(self, size)
		m := &viewModel{self: self, size: size, rng: randv2.New(streamSource{peer.Stream(self+1, self, peer.StreamMembership)})}
		var buf []peer.ID
		for i, op := range ops {
			p := peer.ID(op % 50)
			switch i % 6 {
			case 0, 1:
				m.mergeExchange([]peer.ID{p}, nil)
				v.Add(p)
			case 2:
				if j := slices.Index(m.peers, p); j >= 0 {
					m.drop(j)
				}
				v.Remove(p)
			case 3:
				// Offer back one entry the view holds, so the
				// pool-first eviction is exercised, not just the random
				// one.
				sent := []peer.ID{p + 2, self}
				if len(m.peers) > 0 {
					sent = append(sent, m.peers[int(op>>8)%len(m.peers)])
				}
				m.mergeExchange([]peer.ID{p, p + 1, peer.None}, sent)
				v.MergeExchange([]peer.ID{p, p + 1, peer.None}, sent)
			case 4:
				m.mergeExchange([]peer.ID{p, p + 3, p + 6}, nil)
				v.Seed([]peer.ID{p, p + 3, p + 6})
			case 5:
				f := int(op>>8) % (size + 2)
				want := m.sample(f)
				if buf = v.SampleInto(buf, f); !slices.Equal(buf, want) {
					t.Logf("op %d: SampleInto(%d) = %v, model %v", i, f, buf, want)
					return false
				}
			}
			peers := v.Peers()
			if !slices.Equal(peers, m.peers) {
				t.Logf("op %d: view %v, model %v", i, peers, m.peers)
				return false
			}
			for q := peer.ID(0); q < 60; q++ {
				if v.Contains(q) != slices.Contains(peers, q) {
					t.Logf("op %d: Contains(%d) = %v, view %v", i, q, v.Contains(q), peers)
					return false
				}
			}
			if v.Len() > size || v.Contains(self) {
				return false
			}
			seen := make(map[peer.ID]bool, len(peers))
			for _, q := range peers {
				if seen[q] {
					return false
				}
				seen[q] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultsFilled(t *testing.T) {
	v := NewView(Config{}, 1, rand.New(rand.NewSource(1)))
	for i := peer.ID(2); i < 100; i++ {
		v.Add(i)
	}
	if v.Len() != DefaultConfig().ViewSize {
		t.Fatalf("default capacity = %d, want %d", v.Len(), DefaultConfig().ViewSize)
	}
	if got := len(v.ShuffleSample(nil)); got == 0 {
		t.Fatal("default shuffle size zero")
	}
}

func TestPeersReturnsCopy(t *testing.T) {
	v := newView(0, 5)
	v.Seed([]peer.ID{1, 2, 3})
	p := v.Peers()
	p[0] = 99
	if v.Contains(99) {
		t.Fatal("Peers exposed internal slice")
	}
}
