// Package obs is the unified observability plane: a dependency-free,
// allocation-free metrics registry with named, optionally labeled
// counters, gauges, histograms and callback instruments, plus cheap
// point-in-time snapshots rendered as Prometheus text (Serve), expvar
// JSON, or structured JSONL run events (EventLog).
//
// The design rule, enforced by the scenario and sweep equivalence tests,
// is that observability never feeds the seeded deterministic path:
// instruments only *read* the simulation (atomic adds on the hot loops,
// mutex-guarded getters at scrape time), so every golden report and
// sweep matrix is byte-identical with obs enabled or disabled.
//
// Every instrument is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, *Registry or *EventLog are no-ops. Instrumented code can
// therefore bump its counters unconditionally — a disabled plane costs
// one predictable branch per update, no interface dispatch, no
// allocation.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key="value" pair qualifying an instrument name.
type Label struct {
	Key, Value string
}

// Kind discriminates instrument types in snapshots.
type Kind int

// Instrument kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (bytes resident, workers busy).
type Gauge struct {
	v atomic.Int64
}

// Set stores v. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds n (negative to decrement). Safe on a nil receiver (no-op).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bound histogram with atomic bucket counts. Bounds
// are upper limits in ascending order; an implicit +Inf bucket catches
// the rest. Observe is lock-free: one binary search plus two atomic adds
// (the sum is a CAS loop on float bits).
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last = +Inf
	sum    atomic.Uint64  // float64 bits
	n      atomic.Int64
}

// Observe records one sample. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observations (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DefaultDurationBuckets suit wall-clock spans from milliseconds to
// minutes (cell durations, phase times), in seconds.
var DefaultDurationBuckets = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250,
}

// Func is a callback instrument handle returned by GaugeFunc and
// CounterFunc. Release detaches it; see those constructors.
type Func struct {
	set *funcSet
	fn  func() float64
}

// instrument is one named+labeled entry of a registry.
type instrument struct {
	name   string
	labels []Label
	help   string
	kind   Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	funcs   *funcSet
}

// funcSet aggregates callback instruments registered under one name:
// a snapshot sums every live callback, plus — for counter-kind sets —
// the residual folded in by Release, so short-lived sources (a sweep
// cell's matrix) leave their final contribution behind when they go.
type funcSet struct {
	reg      *Registry
	kind     Kind
	funcs    map[*Func]struct{}
	residual float64
}

// Registry is a set of named instruments. The zero value is not usable;
// call NewRegistry. A nil *Registry is safe: every constructor returns a
// nil instrument whose methods are no-ops.
type Registry struct {
	mu   sync.Mutex
	inst map[string]*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{inst: make(map[string]*instrument)}
}

// key renders the canonical instrument key: name plus sorted labels.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// get returns the instrument under (name, labels), creating it with mk on
// first use and asserting the kind matches on reuse.
func (r *Registry) get(name, help string, kind Kind, labels []Label, mk func(*instrument)) *instrument {
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.inst[k]; ok {
		if in.kind != kind {
			panic(fmt.Sprintf("obs: instrument %s re-registered as %v (was %v)", k, kind, in.kind))
		}
		return in
	}
	in := &instrument{name: name, labels: append([]Label(nil), labels...), help: help, kind: kind}
	mk(in)
	r.inst[k] = in
	return in
}

// Counter returns the counter under (name, labels), creating it on first
// use. Same name+labels always yields the same counter, so concurrent
// sources (sweep cells) aggregate naturally. Nil-safe: a nil registry
// returns a nil counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, help, KindCounter, labels, func(in *instrument) {
		in.counter = &Counter{}
	}).counter
}

// Gauge returns the gauge under (name, labels), creating it on first use.
// Nil-safe: a nil registry returns a nil gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, help, KindGauge, labels, func(in *instrument) {
		in.gauge = &Gauge{}
	}).gauge
}

// Histogram returns the histogram under (name, labels) with the given
// ascending upper bounds (an implicit +Inf bucket is appended), creating
// it on first use; bounds of an existing histogram are kept. Nil-safe: a
// nil registry returns a nil histogram.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, help, KindHistogram, labels, func(in *instrument) {
		bs := append([]float64(nil), bounds...)
		if !sort.Float64sAreSorted(bs) {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending: %v", name, bounds))
		}
		in.hist = &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
	}).hist
}

// GaugeFunc registers a callback gauge under (name, labels): snapshots
// report the sum of every live callback registered under the name, so
// concurrent sources each contribute their share. Release drops the
// callback (and its contribution — a gone gauge reads zero). Nil-safe: a
// nil registry returns a nil handle whose Release is a no-op.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) *Func {
	return r.addFunc(name, help, KindGauge, fn, labels)
}

// CounterFunc is GaugeFunc for cumulative sources (a matrix's recompute
// count): on Release the callback's final value folds into a residual
// kept under the name, so completed sources stay counted — the total
// only ever grows.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) *Func {
	return r.addFunc(name, help, KindCounter, fn, labels)
}

func (r *Registry) addFunc(name, help string, kind Kind, fn func() float64, labels []Label) *Func {
	if r == nil {
		return nil
	}
	in := r.get(name, help, kind, labels, func(in *instrument) {
		in.funcs = &funcSet{reg: r, kind: kind, funcs: make(map[*Func]struct{})}
	})
	if in.funcs == nil {
		panic(fmt.Sprintf("obs: %s already registered as a non-callback %v", name, kind))
	}
	f := &Func{set: in.funcs, fn: fn}
	r.mu.Lock()
	in.funcs.funcs[f] = struct{}{}
	r.mu.Unlock()
	return f
}

// Release detaches the callback from its registry. For CounterFunc
// handles the final value folds into the name's residual first. Safe on
// a nil receiver and safe to call twice.
func (f *Func) Release() {
	if f == nil || f.set == nil {
		return
	}
	set := f.set
	f.set = nil
	// Read the callback outside the registry lock: it may itself lock
	// the instrumented object.
	var final float64
	if set.kind == KindCounter {
		final = f.fn()
	}
	set.reg.mu.Lock()
	if _, ok := set.funcs[f]; ok {
		delete(set.funcs, f)
		set.residual += final
	}
	set.reg.mu.Unlock()
}

// Bucket is one histogram bucket of a snapshot: the cumulative count of
// observations at or below the upper bound.
type Bucket struct {
	Upper      float64 // math.Inf(1) for the last bucket
	Cumulative int64
}

// Sample is one instrument's point-in-time value.
type Sample struct {
	Name   string
	Labels []Label
	Help   string
	Kind   Kind

	// Value is the counter/gauge value (callback instruments included).
	Value float64
	// Count, Sum and Buckets are set for histograms.
	Count   int64
	Sum     float64
	Buckets []Bucket
}

// Key returns the canonical name{labels} identity of the sample.
func (s *Sample) Key() string { return key(s.Name, s.Labels) }

// Snapshot returns a consistent point-in-time copy of every instrument,
// sorted by name then labels. Callback instruments are evaluated during
// the snapshot; their sources must tolerate concurrent reads. Nil-safe:
// a nil registry snapshots empty.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	// Collect instrument references under the lock, evaluate callbacks
	// outside it: a callback may lock the instrumented object, and must
	// never do so under the registry lock (scrape-vs-register deadlock).
	r.mu.Lock()
	type pending struct {
		in       *instrument
		fns      []func() float64
		residual float64
	}
	ps := make([]pending, 0, len(r.inst))
	for _, in := range r.inst {
		p := pending{in: in}
		if in.funcs != nil {
			p.residual = in.funcs.residual
			for f := range in.funcs.funcs {
				p.fns = append(p.fns, f.fn)
			}
		}
		ps = append(ps, p)
	}
	r.mu.Unlock()

	out := make([]Sample, 0, len(ps))
	for _, p := range ps {
		in := p.in
		s := Sample{Name: in.name, Labels: in.labels, Help: in.help, Kind: in.kind}
		switch {
		case in.counter != nil:
			s.Value = float64(in.counter.Value())
		case in.gauge != nil:
			s.Value = float64(in.gauge.Value())
		case in.hist != nil:
			s.Count = in.hist.Count()
			s.Sum = in.hist.Sum()
			var cum int64
			for i, b := range in.hist.bounds {
				cum += in.hist.counts[i].Load()
				s.Buckets = append(s.Buckets, Bucket{Upper: b, Cumulative: cum})
			}
			cum += in.hist.counts[len(in.hist.bounds)].Load()
			s.Buckets = append(s.Buckets, Bucket{Upper: math.Inf(1), Cumulative: cum})
		default:
			s.Value = p.residual
			for _, fn := range p.fns {
				s.Value += fn()
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Key() < out[j].Key()
	})
	return out
}

// Scalars flattens a snapshot into key → value pairs for the event log:
// counters and gauges map directly, histograms contribute _count and
// _sum entries.
func Scalars(samples []Sample) map[string]float64 {
	m := make(map[string]float64, len(samples))
	for i := range samples {
		s := &samples[i]
		if s.Kind == KindHistogram {
			m[s.Key()+"_count"] = float64(s.Count)
			m[s.Key()+"_sum"] = s.Sum
			continue
		}
		m[s.Key()] = s.Value
	}
	return m
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format (text/plain; version 0.0.4), sorted by name so
// scrapes are diffable. Nil-safe: a nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	samples := r.Snapshot()
	var lastName string
	for i := range samples {
		s := &samples[i]
		if s.Name != lastName {
			lastName = s.Name
			if s.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, s.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
				return err
			}
		}
		if s.Kind == KindHistogram {
			if err := writeHistogram(w, s); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", s.Key(), formatValue(s.Value)); err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, s *Sample) error {
	for _, b := range s.Buckets {
		le := "+Inf"
		if !math.IsInf(b.Upper, 1) {
			le = formatValue(b.Upper)
		}
		labels := append(append([]Label(nil), s.Labels...), Label{Key: "le", Value: le})
		if _, err := fmt.Fprintf(w, "%s %d\n", key(s.Name+"_bucket", labels), b.Cumulative); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", key(s.Name+"_sum", s.Labels), formatValue(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", key(s.Name+"_count", s.Labels), s.Count)
	return err
}

// formatValue renders a float the way Prometheus clients do: integers
// without a decimal point, everything else in shortest form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
