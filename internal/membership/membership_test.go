package membership

import (
	"math/rand"
	"testing"
	"testing/quick"

	"emcast/internal/peer"
)

func newView(self peer.ID, size int) *View {
	return NewView(Config{ViewSize: size, ShuffleSize: size/2 + 1}, self, rand.New(rand.NewSource(int64(self)+1)))
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

// TestQuickViewInvariants property-checks that no operation sequence can
// put the view over capacity, insert self, or create duplicates.
func TestQuickViewInvariants(t *testing.T) {
	f := func(ops []uint32) bool {
		v := newView(3, 8)
		for i, op := range ops {
			p := peer.ID(op % 50)
			switch i % 4 {
			case 0, 1:
				v.Add(p)
			case 2:
				v.Remove(p)
			case 3:
				v.MergeExchange([]peer.ID{p, p + 1}, []peer.ID{p + 2})
			}
			if v.Len() > 8 || v.Contains(3) {
				return false
			}
			peers := v.Peers()
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
