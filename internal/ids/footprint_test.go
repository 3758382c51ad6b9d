package ids

import (
	"runtime"
	"testing"
	"weak"
)

// TestFootprintMatchesHeap holds FootprintBytes to the heap. It builds
// about 2,000 tables, Sets and Bounded tables of 32-byte values, at fills
// just below and just past a doubling of the index or of the entry
// arrays, plus bounded ones filled past a compaction, and compares the
// sum of their FootprintBytes with the live heap their inserts add. The
// table headers are allocated before the baseline, since FootprintBytes
// leaves them to their owner. Size-class rounding is the only slack.
func TestFootprintMatchesHeap(t *testing.T) {
	// 6 and 7 straddle the first index's doubling, 8 and 9 the first
	// entry arrays', and so on up.
	fills := []int{6, 7, 8, 9, 12, 13, 16, 17, 24, 25, 48, 49, 96, 97}
	const copies = 70
	const compacted, capacity, inserts = 20, 100, 210 // compacts at insert 201
	var sets []*Set
	var bounded []*Bounded[[4]uint64]
	for range len(fills) * copies {
		sets = append(sets, NewSet(0))
		bounded = append(bounded, NewBounded[[4]uint64](0))
	}
	for range compacted {
		sets = append(sets, NewSet(capacity))
		bounded = append(bounded, NewBounded[[4]uint64](capacity))
	}
	g := NewGenerator(1)
	g.Next() // seed the generator's source before the baseline

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range sets {
		n := inserts
		if i < len(fills)*copies {
			n = fills[i%len(fills)]
		}
		for range n {
			id := g.Next()
			sets[i].Add(id)
			bounded[i].Add(id, [4]uint64{1})
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	var charged int64
	for i := range sets {
		charged += sets[i].FootprintBytes() + bounded[i].FootprintBytes()
	}
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d tables: FootprintBytes %d, heap %d (ratio %.3f)", 2*len(sets), charged, heap, float64(charged)/float64(heap))
	if diff := charged - heap; diff*10 > heap || -diff*10 > heap {
		t.Errorf("FootprintBytes sums to %d over %d tables, the heap grew %d: more than 10 %% apart", charged, 2*len(sets), heap)
	}
	runtime.KeepAlive(sets)
	runtime.KeepAlive(bounded)
}

// blob is a value big enough to get an allocation of its own (the tiny
// allocator packs pointer-free objects under 16 bytes together, and one
// live neighbour would keep them all).
type blob struct{ b [64]byte }

// TestEvictedValuesAreReleased: a dense-entry table must not pin what it
// no longer holds. A Bounded at capacity 2 evicts all but its last two
// of 250 values: it compacts at every 65th eviction, three times, and
// ends with 53 evicted entries in its dead prefix. A Map deletes all but
// one of 250 values, nearly all of them by moving the last entry into
// the hole. After a collection no removed value is reachable, and every held
// one still is.
func TestEvictedValuesAreReleased(t *testing.T) {
	g := NewGenerator(1)
	const n = 250

	b := NewBounded[*blob](2)
	var added []weak.Pointer[blob]
	for range n {
		v := &blob{}
		added = append(added, weak.Make(v))
		b.Add(g.Next(), v)
	}
	runtime.GC()
	for i, w := range added {
		if held := i >= n-2; (w.Value() != nil) != held {
			t.Fatalf("Bounded value %d of %d reachable = %v, held = %v", i, n, !held, held)
		}
	}
	runtime.KeepAlive(b)

	m := NewMap[*blob](0)
	keys := make([]ID, n)
	added = added[:0]
	for i := range keys {
		v := &blob{}
		keys[i] = g.Next()
		added = append(added, weak.Make(v))
		m.Put(keys[i], v)
	}
	for i := 0; i < n-1; i++ { // the oldest first: nearly every Delete moves the last entry
		m.Delete(keys[i])
	}
	runtime.GC()
	for i, w := range added {
		if held := i == n-1; (w.Value() != nil) != held {
			t.Fatalf("Map value %d of %d reachable = %v, held = %v", i, n, !held, held)
		}
	}
	runtime.KeepAlive(m)
}
