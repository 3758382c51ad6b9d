package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrentIncrements(t *testing.T) {
	reg := NewRegistry()
	const goroutines, perG = 16, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Same name from every goroutine: must resolve to one counter.
			c := reg.Counter("events_total", "test")
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if v := Scalars(reg.Snapshot())["events_total"]; v != goroutines*perG {
		t.Fatalf("events_total = %v, want %d", v, goroutines*perG)
	}
}

func TestSnapshotConsistencyUnderWrites(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c", "")
	g := reg.Gauge("g", "")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
				c.Inc()
				g.Set(i)
			}
		}
	}()
	var prev float64
	for i := 0; i < 100; i++ {
		samples := reg.Snapshot()
		var cur float64
		for _, s := range samples {
			if s.Name == "c" {
				cur = s.Value
			}
		}
		if cur < prev {
			t.Fatalf("counter went backwards across snapshots: %v -> %v", prev, cur)
		}
		prev = cur
	}
	close(stop)
	wg.Wait()
}

func TestHistogramBounds(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "", []float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 2, 7, 10, 11, 100} {
		h.Observe(v)
	}
	samples := reg.Snapshot()
	if len(samples) != 1 {
		t.Fatalf("got %d samples", len(samples))
	}
	s := samples[0]
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if want := 0.5 + 1 + 2 + 7 + 10 + 11 + 100; s.Sum != want {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
	// Cumulative: <=1: {0.5, 1}; <=5: +{2}; <=10: +{7, 10}; +Inf: +{11, 100}.
	want := []Bucket{
		{Upper: 1, Cumulative: 2},
		{Upper: 5, Cumulative: 3},
		{Upper: 10, Cumulative: 5},
		{Upper: math.Inf(1), Cumulative: 7},
	}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %v, want %v", s.Buckets, want)
	}
	for i := range want {
		if s.Buckets[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, s.Buckets[i], want[i])
		}
	}
}

func TestLabelsSeparateSeries(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cells", "", Label{"strategy", "flat"}).Add(3)
	reg.Counter("cells", "", Label{"strategy", "ttl"}).Add(5)
	values := Scalars(reg.Snapshot())
	if v := values[`cells{strategy="flat"}`]; v != 3 {
		t.Fatalf("flat = %v", v)
	}
	if v := values[`cells{strategy="ttl"}`]; v != 5 {
		t.Fatalf("ttl = %v", v)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`cells{strategy="flat"} 3`, `cells{strategy="ttl"} 5`} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// One TYPE line for the shared name, not one per label set.
	if n := strings.Count(out, "# TYPE cells counter"); n != 1 {
		t.Fatalf("TYPE lines = %d, want 1:\n%s", n, out)
	}
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x", "")
	g := reg.Gauge("y", "")
	h := reg.Histogram("z", "", []float64{1})
	f := reg.GaugeFunc("w", "", func() float64 { return 1 })
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(-1)
	h.Observe(3)
	f.Release()
	if reg.Snapshot() != nil {
		t.Fatal("nil registry snapshot not empty")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q, err %v", buf.String(), err)
	}
	var log *EventLog
	log.Event("e", nil) // must not panic
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCounterFuncResidual(t *testing.T) {
	reg := NewRegistry()
	v1 := 10.0
	f1 := reg.CounterFunc("recomputes_total", "", func() float64 { return v1 })
	f2 := reg.CounterFunc("recomputes_total", "", func() float64 { return 7 })
	value := func() float64 { return Scalars(reg.Snapshot())["recomputes_total"] }
	if v := value(); v != 17 {
		t.Fatalf("live sum = %v, want 17", v)
	}
	v1 = 12
	f1.Release() // folds 12 into the residual
	if v := value(); v != 19 {
		t.Fatalf("after release = %v, want 19", v)
	}
	f1.Release() // double release is a no-op
	if v := value(); v != 19 {
		t.Fatalf("after double release = %v, want 19", v)
	}
	f2.Release()
	if v := value(); v != 19 {
		t.Fatalf("after both released = %v, want 19", v)
	}
}

func TestGaugeFuncDropsOnRelease(t *testing.T) {
	reg := NewRegistry()
	f := reg.GaugeFunc("resident_bytes", "", func() float64 { return 100 })
	if v := Scalars(reg.Snapshot())["resident_bytes"]; v != 100 {
		t.Fatalf("= %v, want 100", v)
	}
	f.Release()
	if v := Scalars(reg.Snapshot())["resident_bytes"]; v != 0 {
		t.Fatalf("after release = %v, want 0 (gauges do not accumulate)", v)
	}
}

func TestEventLogJSONL(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("events_total", "").Add(42)
	var buf bytes.Buffer
	log := NewEventLog(&buf, reg)
	log.Event("run_start", map[string]interface{}{"nodes": 100})
	log.Event("run_end", nil)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var rec map[string]interface{}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if rec["event"] != "run_start" || rec["nodes"] != float64(100) {
		t.Fatalf("bad record: %v", rec)
	}
	metrics, ok := rec["metrics"].(map[string]interface{})
	if !ok || metrics["events_total"] != float64(42) {
		t.Fatalf("metrics payload missing or wrong: %v", rec["metrics"])
	}
	if rec["seq"] != float64(1) {
		t.Fatalf("seq = %v, want 1", rec["seq"])
	}
}

func TestPrometheusHistogramFormat(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("cell_seconds", "cell wall time", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE cell_seconds histogram",
		`cell_seconds_bucket{le="1"} 1`,
		`cell_seconds_bucket{le="10"} 2`,
		`cell_seconds_bucket{le="+Inf"} 3`,
		"cell_seconds_sum 55.5",
		"cell_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
