package ranking

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"emcast/internal/msg"
	"emcast/internal/peer"
)

func newTable(self peer.ID) *Table {
	return NewTable(Config{Fraction: 0.2, SampleSize: 8}, self)
}

func TestOwnScoreAndIsBest(t *testing.T) {
	tab := newTable(1)
	if tab.IsBest(1) {
		t.Fatal("empty table considers self best")
	}
	tab.SetOwnScore(10)
	if !tab.IsBest(1) {
		t.Fatal("only known node must be best")
	}
	if tab.Score(1) != 10 {
		t.Fatalf("Score = %v", tab.Score(1))
	}
	if !math.IsInf(tab.Score(99), 1) {
		t.Fatal("unknown score must be +Inf")
	}
}

func TestRankingQuantile(t *testing.T) {
	tab := newTable(1)
	tab.SetOwnScore(50)
	var scores []msg.Score
	for i := peer.ID(2); i <= 10; i++ {
		scores = append(scores, msg.Score{Node: i, Value: float64(i) * 10})
	}
	tab.Merge(scores)
	// 10 known scores, fraction 0.2 -> the best 2 (scores 20, 30).
	if !tab.IsBest(2) || !tab.IsBest(3) {
		t.Fatalf("best set wrong: threshold=%v", tab.Threshold())
	}
	for i := peer.ID(4); i <= 10; i++ {
		if tab.IsBest(i) {
			t.Fatalf("node %d (score %v) wrongly best", i, tab.Score(i))
		}
	}
	if tab.IsBest(1) { // self score 50 is mid-pack
		t.Fatal("self wrongly best")
	}
	if tab.IsBest(42) {
		t.Fatal("unknown node considered best")
	}
}

func TestMergeIgnoresGarbage(t *testing.T) {
	tab := newTable(1)
	tab.SetOwnScore(5)
	tab.Merge([]msg.Score{
		{Node: 1, Value: 0},           // self: must not be overwritten
		{Node: peer.None, Value: 1},   // sentinel
		{Node: 2, Value: math.NaN()},  // NaN
		{Node: 3, Value: math.Inf(1)}, // Inf
		{Node: 4, Value: 7},           // valid
	})
	if tab.Score(1) != 5 {
		t.Fatal("merge overwrote own score")
	}
	if tab.Known() != 2 {
		t.Fatalf("Known = %d, want 2 (self + node 4)", tab.Known())
	}
	tab.SetOwnScore(math.NaN())
	if tab.Score(1) != 5 {
		t.Fatal("NaN own score accepted")
	}
}

func TestMergeUpdatesExisting(t *testing.T) {
	tab := newTable(1)
	tab.Merge([]msg.Score{{Node: 2, Value: 100}})
	tab.Merge([]msg.Score{{Node: 2, Value: 50}})
	if tab.Score(2) != 50 {
		t.Fatalf("score not updated: %v", tab.Score(2))
	}
}

func TestSampleIncludesSelfAndFreshest(t *testing.T) {
	tab := NewTable(Config{Fraction: 0.2, SampleSize: 3}, 1)
	tab.SetOwnScore(5)
	tab.Merge([]msg.Score{{Node: 2, Value: 1}})
	tab.Merge([]msg.Score{{Node: 3, Value: 2}})
	tab.Merge([]msg.Score{{Node: 4, Value: 3}})
	s := tab.Sample()
	if len(s) != 3 {
		t.Fatalf("sample size = %d, want 3", len(s))
	}
	if s[0].Node != 1 || s[0].Value != 5 {
		t.Fatalf("sample[0] = %+v, want own score first", s[0])
	}
	// Freshest non-self entries follow: 4 then 3.
	if s[1].Node != 4 || s[2].Node != 3 {
		t.Fatalf("sample order = %+v, want freshest first", s)
	}
}

func TestCapacityPrunesStalest(t *testing.T) {
	tab := NewTable(Config{Fraction: 0.2, SampleSize: 4, Capacity: 5}, 1)
	tab.SetOwnScore(1)
	for i := peer.ID(2); i <= 20; i++ {
		tab.Merge([]msg.Score{{Node: i, Value: float64(i)}})
	}
	if tab.Known() != 5 {
		t.Fatalf("Known = %d, want capacity 5", tab.Known())
	}
	if math.IsInf(tab.Score(1), 1) {
		t.Fatal("self pruned")
	}
	if math.IsInf(tab.Score(20), 1) {
		t.Fatal("freshest entry pruned")
	}
	if !math.IsInf(tab.Score(2), 1) {
		t.Fatal("stalest entry kept")
	}
}

func TestEpidemicConvergence(t *testing.T) {
	// 20 tables gossiping samples ring-wise must all converge on the
	// same best set.
	const n = 20
	tables := make([]*Table, n)
	for i := range tables {
		tables[i] = NewTable(Config{Fraction: 0.1, SampleSize: 32}, peer.ID(i))
		tables[i].SetOwnScore(float64((i*7)%n + 1)) // distinct scores
	}
	for round := 0; round < 10; round++ {
		for i, tab := range tables {
			tables[(i+1)%n].Merge(tab.Sample())
			tables[(i+7)%n].Merge(tab.Sample())
		}
	}
	// Best 10% of 20 nodes = the 2 nodes with the lowest scores
	// (scores are (i*7)%20+1, so nodes with scores 1 and 2).
	for i, tab := range tables {
		if tab.Known() != n {
			t.Fatalf("table %d knows %d scores, want %d", i, tab.Known(), n)
		}
		bestCount := 0
		for j := 0; j < n; j++ {
			if tab.IsBest(peer.ID(j)) {
				bestCount++
				if s := tab.Score(peer.ID(j)); s > 2 {
					t.Fatalf("table %d considers score %v best", i, s)
				}
			}
		}
		if bestCount != 2 {
			t.Fatalf("table %d best count = %d, want 2", i, bestCount)
		}
	}
}

// TestQuickTableInvariants property-checks that merges never admit self,
// NaN, or exceed capacity.
func TestQuickTableInvariants(t *testing.T) {
	f := func(nodes []uint16, values []int16) bool {
		tab := NewTable(Config{Fraction: 0.2, SampleSize: 4, Capacity: 16}, 3)
		tab.SetOwnScore(1)
		for i := range nodes {
			v := 1.0
			if i < len(values) {
				v = float64(values[i])
			}
			tab.Merge([]msg.Score{{Node: peer.ID(nodes[i]), Value: v}})
			if tab.Known() > 16 {
				return false
			}
			if tab.Score(3) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// sortedIsBest is the sort-based reference the cached threshold must
// match: p is best when its score is at most the ⌈Fraction·n⌉-th smallest
// known score.
func sortedIsBest(tab *Table, p peer.ID) bool {
	if _, ok := tab.scores[p]; !ok {
		return false
	}
	values := make([]float64, 0, len(tab.scores))
	for _, e := range tab.scores {
		values = append(values, e.value)
	}
	sort.Float64s(values)
	k := min(max(int(math.Ceil(tab.cfg.Fraction*float64(len(values))))-1, 0), len(values)-1)
	return tab.Score(p) <= values[k]
}

// TestCachedThresholdMatchesSort drives tables through random sequences of
// own-score updates, merges and over-capacity prunes, and checks every
// IsBest answer against a fresh sort of the known scores.
func TestCachedThresholdMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		tab := NewTable(Config{Fraction: 0.05 + rng.Float64()*0.5, SampleSize: 4, Capacity: 8 + rng.Intn(24)}, 0)
		for step := 0; step < 200; step++ {
			if rng.Intn(4) == 0 {
				tab.SetOwnScore(float64(rng.Intn(50)))
			} else {
				batch := make([]msg.Score, 1+rng.Intn(6))
				for i := range batch {
					batch[i] = msg.Score{Node: peer.ID(rng.Intn(60)), Value: float64(rng.Intn(50))}
				}
				tab.Merge(batch)
			}
			for p := peer.ID(0); p < 60; p++ {
				if got, want := tab.IsBest(p), sortedIsBest(tab, p); got != want {
					t.Fatalf("trial %d step %d: IsBest(%d) = %v, sort says %v (threshold %v)",
						trial, step, p, got, want, tab.Threshold())
				}
			}
		}
	}
}

func TestIsBestDoesNotAllocate(t *testing.T) {
	tab := newTable(1)
	tab.SetOwnScore(5)
	for i := peer.ID(2); i <= 500; i++ {
		tab.Merge([]msg.Score{{Node: i, Value: float64(i)}})
	}
	tab.IsBest(2)
	if allocs := testing.AllocsPerRun(100, func() { tab.IsBest(2); tab.IsBest(400) }); allocs != 0 {
		t.Fatalf("IsBest allocates %v times per call pair, want 0", allocs)
	}
}

func TestScoresCodecRoundTrip(t *testing.T) {
	in := &msg.Scores{Scores: []msg.Score{
		{Node: 1, Value: 3.25},
		{Node: 99, Value: -7},
	}}
	out, err := msg.Decode(in.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*msg.Scores)
	if len(got.Scores) != 2 || got.Scores[0] != in.Scores[0] || got.Scores[1] != in.Scores[1] {
		t.Fatalf("round trip = %+v", got)
	}
}
