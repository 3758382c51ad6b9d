package disstrace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"emcast/internal/ids"
	"emcast/internal/peer"
)

// TestSamplingDeterministic: the sample decision is a pure function of
// (seed, id) — stable across tracer instances, roughly proportional to
// the rate, all-in at rate 1 and empty at rate 0.
func TestSamplingDeterministic(t *testing.T) {
	const n = 2000
	g := ids.NewGenerator(9)
	msgs := make([]ids.ID, n)
	for i := range msgs {
		msgs[i] = g.Next()
	}

	a := New(Config{Rate: 0.3, Seed: 42})
	b := New(Config{Rate: 0.3, Seed: 42})
	other := New(Config{Rate: 0.3, Seed: 43})
	sampled, differs := 0, false
	for _, id := range msgs {
		if a.Sampled(id) != b.Sampled(id) {
			t.Fatalf("same seed disagrees on %v", id)
		}
		if a.Sampled(id) {
			sampled++
		}
		if a.Sampled(id) != other.Sampled(id) {
			differs = true
		}
	}
	if frac := float64(sampled) / n; math.Abs(frac-0.3) > 0.05 {
		t.Fatalf("sampled fraction %v, want ~0.3", frac)
	}
	if !differs {
		t.Fatal("different seeds produced the identical sample set")
	}

	all := New(Config{Rate: 1, Seed: 1})
	none := New(Config{Rate: 0, Seed: 1})
	for _, id := range msgs {
		if !all.Sampled(id) {
			t.Fatal("rate 1 skipped an id")
		}
		if none.Sampled(id) {
			t.Fatal("rate 0 sampled an id")
		}
	}
}

// feedTwoTrees drives a hand-built event sequence into tr: message m1
// (origin 0, two eager children 1 and 2, node 3 recovered lazily via 1,
// one duplicate at 1) and a later message m2 (origin 0, single eager hop
// to 1). Returns the two ids.
func feedTwoTrees(tr *Tracer) (m1, m2 ids.ID) {
	g := ids.NewGenerator(5)
	m1, m2 = g.Next(), g.Next()

	tr.Multicast(0, m1, 0)
	tr.Delivered(0, m1, 0)
	tr.PayloadSent(0, 1, m1, 64, true)
	tr.PayloadReceived(0, 1, m1, 10*time.Millisecond)
	tr.Delivered(1, m1, 10*time.Millisecond)
	tr.PayloadSent(0, 2, m1, 64, true)
	tr.PayloadReceived(0, 2, m1, 12*time.Millisecond)
	tr.Delivered(2, m1, 12*time.Millisecond)
	// Node 3: lazy recovery through 1 (IHAVE -> IWANT -> payload).
	tr.Advertised(1, 3, m1, 11*time.Millisecond)
	tr.Requested(3, 1, m1, 21*time.Millisecond)
	tr.PayloadSent(1, 3, m1, 64, false)
	tr.PayloadReceived(1, 3, m1, 30*time.Millisecond)
	tr.Delivered(3, m1, 30*time.Millisecond)
	// Redundant eager copy 2 -> 1, suppressed as a duplicate.
	tr.PayloadSent(2, 1, m1, 64, true)
	tr.DuplicateReceived(2, 1, m1, 15*time.Millisecond)
	tr.RequestMiss(3, m1)

	tr.Multicast(0, m2, 100*time.Millisecond)
	tr.Delivered(0, m2, 100*time.Millisecond)
	tr.PayloadSent(0, 1, m2, 64, true)
	tr.PayloadReceived(0, 1, m2, 110*time.Millisecond)
	tr.Delivered(1, m2, 110*time.Millisecond)
	return m1, m2
}

// TestTreeMetrics pins every per-tree statistic against a hand-checked
// two-message sequence.
func TestTreeMetrics(t *testing.T) {
	tr := New(Config{Rate: 1, Seed: 1})
	m1, m2 := feedTwoTrees(tr)
	rep := tr.Report()

	if rep.Sampled != 2 || len(rep.Trees) != 2 {
		t.Fatalf("sampled = %d trees = %d, want 2/2", rep.Sampled, len(rep.Trees))
	}
	first := rep.Trees[0]
	if first.ID != m1.String() {
		t.Fatalf("tree order wrong: first = %s, want %s", first.ID, m1)
	}
	if first.Origin != 0 || first.Deliveries != 4 {
		t.Fatalf("first tree origin/deliveries = %d/%d, want 0/4", first.Origin, first.Deliveries)
	}
	if first.Depth != 2 {
		t.Fatalf("depth = %d, want 2 (0 -> 1 -> 3)", first.Depth)
	}
	if first.RootFanout != 2 || first.MaxFanout != 2 {
		t.Fatalf("fanout root/max = %d/%d, want 2/2", first.RootFanout, first.MaxFanout)
	}
	// 3 delivery edges over 2 internal nodes (0 and 1).
	if first.MeanFanout != 1.5 {
		t.Fatalf("mean fanout = %v, want 1.5", first.MeanFanout)
	}
	if first.EagerHops != 2 || first.LazyHops != 1 {
		t.Fatalf("hops eager/lazy = %d/%d, want 2/1", first.EagerHops, first.LazyHops)
	}
	if math.Abs(first.EagerFraction-2.0/3) > 1e-9 {
		t.Fatalf("eager fraction = %v, want 2/3", first.EagerFraction)
	}
	if first.LastDeliveryMS != 30 || first.CriticalPathHops != 2 {
		t.Fatalf("critical path = %vms/%d hops, want 30/2", first.LastDeliveryMS, first.CriticalPathHops)
	}
	if first.Adverts != 1 || first.Requests != 1 || first.Duplicates != 1 || first.RequestMisses != 1 {
		t.Fatalf("control counts = %+v, want 1 each", first)
	}
	if first.EdgeReuse != -1 {
		t.Fatalf("first tree edge reuse = %v, want -1", first.EdgeReuse)
	}

	second := rep.Trees[1]
	if second.ID != m2.String() {
		t.Fatalf("second tree = %s, want %s", second.ID, m2)
	}
	// m2's only edge 0-1 was also an m1 delivery edge: full reuse.
	if second.EdgeReuse != 1 {
		t.Fatalf("second tree edge reuse = %v, want 1", second.EdgeReuse)
	}
	if rep.MeanEdgeReuse != 1 {
		t.Fatalf("mean edge reuse = %v, want 1", rep.MeanEdgeReuse)
	}
	if rep.MaxDepth != 2 || rep.MeanDepth != 1.5 {
		t.Fatalf("depth mean/max = %v/%d, want 1.5/2", rep.MeanDepth, rep.MaxDepth)
	}
	if rep.RequestMisses != 1 {
		t.Fatalf("report request misses = %d, want 1", rep.RequestMisses)
	}

	// Report is cached: a second call returns the same object.
	if tr.Report() != rep {
		t.Fatal("Report recomputed instead of returning the cached result")
	}
}

// TestTimelineJSON: the exported Chrome trace-event document is valid
// JSON with the envelope chrome://tracing and Perfetto expect.
func TestTimelineJSON(t *testing.T) {
	tr := New(Config{Rate: 1, Seed: 1})
	feedTwoTrees(tr)

	var buf bytes.Buffer
	if err := tr.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			PID   int     `json:"pid"`
			TID   int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("timeline has no events")
	}
	phases := map[string]bool{}
	pids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		phases[e.Phase] = true
		pids[e.PID] = true
	}
	// Metadata, instants and complete events must all be present, and the
	// two messages must land in two distinct pid groups.
	for _, ph := range []string{"M", "i", "X"} {
		if !phases[ph] {
			t.Fatalf("timeline lacks %q events (got %v)", ph, phases)
		}
	}
	if len(pids) != 2 {
		t.Fatalf("timeline pid groups = %d, want 2 (one per message)", len(pids))
	}
}

// TestWriteDOT: the DOT export renders the last tree with eager/lazy
// edge styling, and errors when nothing was sampled.
func TestWriteDOT(t *testing.T) {
	tr := New(Config{Rate: 1, Seed: 1})
	feedTwoTrees(tr)

	var buf bytes.Buffer
	if err := tr.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	dot := buf.String()
	for _, want := range []string{"digraph dissemination", "n0 -> n1", "doublecircle"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT lacks %q:\n%s", want, dot)
		}
	}

	empty := New(Config{Rate: 0, Seed: 1})
	if err := empty.WriteDOT(&buf); err == nil {
		t.Fatal("WriteDOT with no sampled trees did not error")
	}
}

// TestConcurrentHooks hammers every hook from parallel goroutines — the
// live harness shares one tracer across per-peer transport goroutines —
// and checks the sampled-tree census afterwards. Run under -race.
func TestConcurrentHooks(t *testing.T) {
	tr := New(Config{Rate: 1, Seed: 7})
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := ids.NewGenerator(int64(w + 1))
			for i := 0; i < per; i++ {
				id := g.Next()
				at := time.Duration(i) * time.Millisecond
				n := peer.ID(w)
				tr.Multicast(n, id, at)
				tr.Delivered(n, id, at)
				tr.PayloadSent(n, n+1, id, 64, i%2 == 0)
				tr.PayloadReceived(n, n+1, id, at+time.Millisecond)
				tr.Advertised(n, n+2, id, at)
				tr.Requested(n+2, n, id, at)
				tr.DuplicateReceived(n+2, n+1, id, at)
				tr.RequestMiss(n+2, id)
			}
		}(w)
	}
	wg.Wait()
	rep := tr.Report()
	if rep.Sampled != workers*per {
		t.Fatalf("sampled = %d, want %d", rep.Sampled, workers*per)
	}
}
