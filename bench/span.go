package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"emcast/internal/ids"
	"emcast/internal/msg"
)

// Span names: one per layer boundary the benchmark's own wrappers stand at.
// The inside of core.handle_frame (msg decode, lazy, gossip, membership)
// cannot be split from outside; the CPU profile fold covers it.
type spanName int

const (
	spStep        spanName = iota // root on the simulator; self = scheduler pop and advance
	spHandleMsg                   // core.Node.HandleFrame by the frame's kind byte
	spHandleIHave                 //
	spHandleIWant                 //
	spHandleOther                 //
	spTimerFire                   // a protocol timer's callback
	spMulticast                   // core.Node.Multicast
	spEmunetSend                  // emunet.Network.Send
	spAfterFunc                   // emunet.Network.AfterFunc (arming)
	spLatency                     // the latency function emunet consults per send
	spNeemSend                    // neem.Transport.Send: copy and enqueue
	spNeemTransit                 // enqueue to the receiver's handler entry: waiting for the transport
	spEager                       // strategy.Strategy.Eager
	spPickSource                  // strategy.Strategy.PickSource
	spFold                        // any trace.Tracer method
	spDeliver                     // the application upcall
	numSpans
)

var spanNames = [numSpans]string{
	"emunet.step", "core.handle_frame.msg", "core.handle_frame.ihave", "core.handle_frame.iwant",
	"core.handle_frame.other", "core.timer_fire", "core.multicast", "emunet.send", "emunet.after_func",
	"topology.latency", "neem.send", "neem.transit", "strategy.eager", "strategy.pick_source",
	"trace.fold", "app.deliver",
}

// handleSpan names the handler span by the frame's kind byte.
func handleSpan(frame []byte) spanName {
	if len(frame) == 0 {
		return spHandleOther
	}
	switch msg.Kind(frame[0]) {
	case msg.KindMsg:
		return spHandleMsg
	case msg.KindIHave:
		return spHandleIHave
	case msg.KindIWant:
		return spHandleIWant
	}
	return spHandleOther
}

// frameID returns the message id a MSG, IHAVE or IWANT frame carries in the
// bytes after its kind byte.
func frameID(frame []byte) (id ids.ID, ok bool) {
	if len(frame) < 1+ids.IDSize || handleSpan(frame) == spHandleOther {
		return id, false
	}
	copy(id[:], frame[1:])
	return id, true
}

// spanTotals is the ledger kept for every call of a span name.
type spanTotals struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"` // duration minus the part child spans cover
}

// spanRecord is one span of a sampled tree.
type spanRecord struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index in the tree, -1 for its first span
}

// spanTree is the full record of one sampled root and everything under it;
// its spans share the message id.
type spanTree struct {
	Msg   string       `json:"msg,omitempty"`
	Spans []spanRecord `json:"spans"`
}

const (
	sampleEvery = 64   // a root in 64 keeps its full tree
	maxTrees    = 2048 // per context, so the trace file stays a few MB
)

// spanCtx is the span stack of one serial execution domain: the whole
// simulator, or one live node. Roots take mu; spans opened below a root
// run on the root's goroutine and find mu held.
type spanCtx struct {
	mu     sync.Mutex
	base   time.Time
	totals [numSpans]spanTotals
	stack  []openSpan
	roots  int64
	cur    *spanTree // the tree being recorded, nil when the root is not sampled
	trees  []spanTree
	// prevEnd is when the previous simulator root ended: the next
	// emunet.step starts there, so its self time is the scheduler's.
	prevEnd int64
}

type openSpan struct {
	name     spanName
	start    int64
	children int64 // ns covered by child spans
	record   int   // index in cur.Spans, -1 when not sampled
}

func newSpanCtx(base time.Time) *spanCtx {
	return &spanCtx{base: base, stack: make([]openSpan, 0, 8)}
}

func (c *spanCtx) now() int64 { return int64(time.Since(c.base)) }

// active reports whether a root is open; wrappers below a root record
// spans only then, so set-up calls made outside any root pass through.
func (c *spanCtx) active() bool { return len(c.stack) > 0 }

// beginRoot opens a root span at start. enqueued, when non-zero, is when the
// frame that caused the root was handed to the transport: the wait until
// start is accounted as neem.transit, and becomes the root's parent in a
// sampled tree.
func (c *spanCtx) beginRoot(name spanName, start, enqueued int64) {
	c.roots++
	record := -1
	if c.roots%sampleEvery == 1 && len(c.trees) < maxTrees {
		c.cur = &spanTree{}
		record = 0
	}
	if enqueued != 0 {
		t := &c.totals[spNeemTransit]
		t.Count++
		t.TotalNs += start - enqueued
		t.SelfNs += start - enqueued
		if c.cur != nil {
			c.cur.Spans = append(c.cur.Spans, spanRecord{Name: spanNames[spNeemTransit], StartNs: enqueued, EndNs: start, Parent: -1})
			record = 1
		}
	}
	if c.cur != nil {
		c.cur.Spans = append(c.cur.Spans, spanRecord{Name: spanNames[name], StartNs: start, Parent: record - 1})
	}
	c.stack = append(c.stack, openSpan{name: name, start: start, record: record})
}

// begin opens a span below the current one.
func (c *spanCtx) begin(name spanName) {
	start := c.now()
	record := -1
	if c.cur != nil {
		record = len(c.cur.Spans)
		c.cur.Spans = append(c.cur.Spans, spanRecord{Name: spanNames[name], StartNs: start, Parent: c.stack[len(c.stack)-1].record})
	}
	c.stack = append(c.stack, openSpan{name: name, start: start, record: record})
}

func (c *spanCtx) end() {
	now := c.now()
	top := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	dur := now - top.start
	t := &c.totals[top.name]
	t.Count++
	t.TotalNs += dur
	t.SelfNs += dur - top.children
	if top.record >= 0 {
		c.cur.Spans[top.record].EndNs = now
	}
	if len(c.stack) > 0 {
		c.stack[len(c.stack)-1].children += dur
		return
	}
	c.prevEnd = now
	if c.cur != nil {
		c.trees = append(c.trees, *c.cur)
		c.cur = nil
	}
}

// tag labels the tree being recorded with its message id.
func (c *spanCtx) tag(id ids.ID) {
	if c.cur != nil {
		c.cur.Msg = id.String()
	}
}

// traceFile is bench/out/<workload>.trace.json.
type traceFile struct {
	Workload    string                `json:"workload"`
	Seed        int64                 `json:"seed"`
	SampleEvery int                   `json:"sample_every"`
	Spans       map[string]spanTotals `json:"spans"`
	Trees       []spanTree            `json:"trees"`
}

// finishTrace sums the ledgers of every context into the iteration and
// writes the sampled trees out.
func finishTrace(it *iteration, ctxs []*spanCtx, path string) error {
	tf := traceFile{Workload: it.Workload, Seed: it.Seed, SampleEvery: sampleEvery, Spans: make(map[string]spanTotals, numSpans)}
	for _, c := range ctxs {
		c.mu.Lock()
		for i, t := range c.totals {
			sum := tf.Spans[spanNames[i]]
			sum.Count += t.Count
			sum.TotalNs += t.TotalNs
			sum.SelfNs += t.SelfNs
			tf.Spans[spanNames[i]] = sum
		}
		tf.Trees = append(tf.Trees, c.trees...)
		c.mu.Unlock()
	}
	it.Spans = tf.Spans
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
