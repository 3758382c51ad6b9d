package emunet

import (
	"math/bits"
	"slices"
	"time"
)

// timerWheel is a hierarchical timer wheel (Varghese & Lauck scheme 6):
// three levels of 256 buckets over a 2^13 ns (~8.2 µs) tick, giving
// direct coverage out to ~137 virtual seconds, with a plain (at, seq)
// min-heap catching anything farther out. Push and pop are O(1)
// amortised and interface-free — the container/heap scheduler it
// replaced paid O(log n) comparisons plus an interface boxing allocation
// per event, which profiling pinned at ~30% of hot-loop CPU and ~220 MB
// of garbage per 1k-node cell.
//
// Determinism contract: pops come out in exactly ascending (at, seq) —
// the same total order as a binary heap, pinned by the differential
// tests (against a test-only heap oracle) and the golden tests. Three
// mechanisms uphold it:
//
//  1. Bucketing is by tick (at >> tickShift). An L0 bucket within one
//     wheel lap holds exactly one tick value, but distinct `at` values
//     within that ~8.2 µs tick share the bucket, so a bucket is sorted
//     by (at, seq) when it becomes the current drain slice. Cells are
//     appended in seq order and same-instant traffic dominates, so the
//     sort is usually a verified no-op.
//  2. Cascading: every time the frontier crosses a multiple of 256
//     ticks the matching L1 bucket is re-bucketed into L0 (and at
//     multiples of 256² the matching L2 bucket into L1, the overflow
//     heap into the wheel at multiples of 256³). An event therefore
//     always lands in L0 before its tick is scanned.
//  3. Late pushes for the current (or an already-advanced-past) tick go
//     through a sorted insert into the drain slice at a position no
//     earlier than the cursor. A new event's seq is the global maximum,
//     so its slot is simply after every pending event with at <= its
//     at — order among pending events is never disturbed.
//
// Bucket cells ([]event slices) recycle through a free list: the hot
// loop reuses slot arrays instead of allocating, and Footprint counts
// their retained capacity exactly (see slotCap).
type timerWheel struct {
	// curTick is the frontier: every event with tick <= curTick is
	// either executed or sitting in cur. Starts at -1 (nothing scanned).
	curTick int64
	// cur is the drain slice for the frontier, sorted by (at, seq);
	// curPos is the pop cursor. Normally cur holds one tick, but after a
	// peek-driven advance a late push can widen it to several (the
	// sorted insert keeps the total order).
	cur    []event
	curPos int

	levels [wheelLevels][wheelSize][]event
	occ    [wheelLevels][wheelSize / 64]uint64

	// overflow is a plain (at, seq)-ordered min-heap over the event
	// struct directly — no interfaces — for events beyond the L2
	// horizon.
	overflow []event

	// free recycles drained bucket cells through power-of-two size
	// classes (class c holds cells of cap cellMinCap<<c). Classing
	// matters: L1 buckets hold thousands of events while L0 buckets hold
	// a handful, and a single LIFO list kept handing small cells to big
	// buckets, paying the full append-growth realloc chain on every
	// cascade window.
	free [cellClasses][][]event

	count      int // all pending events (cur remainder + wheel + overflow)
	wheelCount int // events in level buckets only

	st SchedStats
}

const (
	// tickShift trades bucket spread against frontier-scan overhead:
	// 2^13 ns ≈ 8.2 µs per tick keeps same-tick populations near one
	// even at 10k+ nodes (so takeBucket's sortedness check almost never
	// trips into a real sort), while L2 still covers ~137 s of virtual
	// time — anything farther sits in the overflow heap, which is exact,
	// just slower. Cascade volume is insensitive to the tick size: an
	// event is re-bucketed at most once per level regardless.
	tickShift   = 13
	wheelBits   = 8
	wheelSize   = 1 << wheelBits
	wheelMask   = wheelSize - 1
	wheelLevels = 3
	// horizon bounds per level, in ticks ahead of the frontier.
	l0Horizon = 1 << wheelBits
	l1Horizon = 1 << (2 * wheelBits)
	l2Horizon = 1 << (3 * wheelBits)
)

func newTimerWheel() *timerWheel {
	return &timerWheel{curTick: -1, st: SchedStats{Kind: "wheel"}}
}

func tickOf(at time.Duration) int64 { return int64(at) >> tickShift }

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (w *timerWheel) len() int { return w.count }

// pushSlot reserves the slot for a new event with the given (at, seq)
// and returns it for the caller to fill the payload fields in place —
// the zero-copy push path: Send writes from/to/frame straight into
// the bucket instead of building an 80-byte event on the stack and
// block-copying it in. The pointer is valid only until the next wheel
// operation. Slot reservation relies on the pool invariant that every
// cell slot beyond len is zero (pop, cascade and growCell zero each
// vacated slot), so extending a cell needs only the at/seq stores.
func (w *timerWheel) pushSlot(at time.Duration, seq uint64) *event {
	w.count++
	if tickOf(at) <= w.curTick {
		return w.insertCurSlot(at, seq)
	}
	return w.placeSlot(w.curTick+1, at, seq)
}

// place buckets an existing event relative to the given frontier (the
// next tick to be scanned). Precondition: tickOf(ev.at) >= frontier. The
// event is copied into its cell; the pointer is not retained.
func (w *timerWheel) place(frontier int64, ev *event) {
	s := w.placeSlot(frontier, ev.at, ev.seq)
	*s = *ev
}

// placeSlot reserves a bucket slot for (at, seq) relative to frontier
// and returns it with only at and seq set (remaining fields zero — see
// pushSlot's pool invariant).
func (w *timerWheel) placeSlot(frontier int64, at time.Duration, seq uint64) *event {
	t := tickOf(at)
	d := t - frontier
	var level uint
	var bucket int
	switch {
	case d < l0Horizon:
		level, bucket = 0, int(t&wheelMask)
	case d < l1Horizon:
		level, bucket = 1, int((t>>wheelBits)&wheelMask)
	case d < l2Horizon:
		level, bucket = 2, int((t>>(2*wheelBits))&wheelMask)
	default:
		return w.overflowPushSlot(at, seq)
	}
	cell := w.levels[level][bucket]
	if cell == nil {
		cell = w.getCell(0)
	}
	if len(cell) == 0 {
		w.occ[level][bucket>>6] |= 1 << (uint(bucket) & 63)
	}
	if len(cell) == cap(cell) {
		cell = w.growCell(cell)
	}
	i := len(cell)
	cell = cell[:i+1]
	w.levels[level][bucket] = cell
	w.wheelCount++
	s := &cell[i]
	s.at = at
	s.seq = seq
	return s
}

// insertCur slots an event into the drain slice, keeping it sorted by
// (at, seq). The event's seq is the global maximum, so its position is
// after every pending event with at <= ev.at; the insert point is never
// before the cursor because pending events all have at >= the last
// popped at <= ev.at... more precisely, the binary search over the
// pending window [curPos, len) finds the first pending event with
// at > ev.at, which is exactly the (at, seq) rank.
func (w *timerWheel) insertCurSlot(at time.Duration, seq uint64) *event {
	w.st.CurInserts++
	lo, hi := w.curPos, len(w.cur)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w.cur[mid].at <= at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if w.cur != nil && len(w.cur) == cap(w.cur) {
		w.cur = w.growCell(w.cur)
	}
	w.cur = append(w.cur, event{})
	copy(w.cur[lo+1:], w.cur[lo:])
	w.cur[lo] = event{at: at, seq: seq}
	return &w.cur[lo]
}

func (w *timerWheel) pop() (event, bool) {
	if w.count == 0 {
		return event{}, false
	}
	if w.curPos >= len(w.cur) {
		w.advance()
	}
	ev := w.cur[w.curPos]
	w.cur[w.curPos] = event{}
	w.curPos++
	w.count--
	return ev, true
}

func (w *timerWheel) peekAt() (time.Duration, bool) {
	if w.count == 0 {
		return 0, false
	}
	if w.curPos >= len(w.cur) {
		w.advance()
	}
	return w.cur[w.curPos].at, true
}

// advance moves the frontier to the next occupied tick and loads its
// bucket into cur. Precondition: cur is drained and count > 0.
func (w *timerWheel) advance() {
	if w.wheelCount == 0 {
		// Only the overflow heap holds events: jump the frontier
		// straight to the earliest one (legal exactly because the wheel
		// is empty — there is nothing between to cascade) and pull the
		// whole now-reachable horizon in.
		w.curTick = tickOf(w.overflow[0].at) - 1
		w.refillOverflow(w.curTick + 1)
	}
	for {
		from := w.curTick + 1
		if from&wheelMask == 0 {
			w.crossBoundary(from)
		}
		if b := w.scanL0(int(from & wheelMask)); b >= 0 {
			w.curTick = from&^int64(wheelMask) | int64(b)
			w.takeBucket(b)
			return
		}
		w.curTick = from | wheelMask
	}
}

// scanL0 returns the first occupied L0 bucket index >= start, or -1.
func (w *timerWheel) scanL0(start int) int {
	word := start >> 6
	cand := w.occ[0][word] &^ (1<<(uint(start)&63) - 1)
	for {
		if cand != 0 {
			return word<<6 + bits.TrailingZeros64(cand)
		}
		word++
		if word >= wheelSize/64 {
			return -1
		}
		cand = w.occ[0][word]
	}
}

// crossBoundary runs the cascade protocol for a frontier hitting a
// multiple of the wheel size: refill from overflow at L2-lap boundaries,
// re-bucket the matching L2 cell at L1-lap boundaries, and the matching
// L1 cell at every boundary. Higher levels first, so their events can
// land in the lower-level cells about to be processed.
func (w *timerWheel) crossBoundary(frontier int64) {
	if frontier&(l2Horizon-1) == 0 && len(w.overflow) > 0 {
		w.refillOverflow(frontier)
	}
	if frontier&(l1Horizon-1) == 0 {
		w.cascade(2, int((frontier>>(2*wheelBits))&wheelMask), frontier)
	}
	w.cascade(1, int((frontier>>wheelBits)&wheelMask), frontier)
}

// cascade re-buckets one higher-level cell relative to the new frontier.
func (w *timerWheel) cascade(level uint, bucket int, frontier int64) {
	cell := w.levels[level][bucket]
	if len(cell) == 0 {
		return
	}
	w.levels[level][bucket] = nil
	w.occ[level][bucket>>6] &^= 1 << (uint(bucket) & 63)
	w.st.Cascades++
	w.wheelCount -= len(cell)
	for i := range cell {
		w.place(frontier, &cell[i])
		cell[i] = event{}
	}
	w.putCell(cell)
}

// refillOverflow moves every overflow event within the L2 horizon of the
// frontier into the wheel, in (at, seq) order.
func (w *timerWheel) refillOverflow(frontier int64) {
	for len(w.overflow) > 0 && tickOf(w.overflow[0].at)-frontier < l2Horizon {
		ev := w.overflowPop()
		w.place(frontier, &ev)
	}
}

// takeBucket promotes an L0 cell to the drain slice, sorting it into
// (at, seq) order if distinct instants within the tick arrived out of
// order (cells are appended in seq order, so same-instant cells are
// already sorted and the check is a linear scan).
func (w *timerWheel) takeBucket(bucket int) {
	cell := w.levels[0][bucket]
	w.levels[0][bucket] = nil
	w.occ[0][bucket>>6] &^= 1 << (uint(bucket) & 63)
	w.wheelCount -= len(cell)
	if w.cur != nil {
		w.putCell(w.cur)
	}
	w.cur = cell
	w.curPos = 0
	if len(cell) > w.st.MaxBucket {
		w.st.MaxBucket = len(cell)
	}
	for i := 1; i < len(cell); i++ {
		if eventLess(&cell[i], &cell[i-1]) {
			w.st.Sorts++
			slices.SortFunc(cell, func(a, b event) int {
				if a.at != b.at {
					if a.at < b.at {
						return -1
					}
					return 1
				}
				if a.seq < b.seq {
					return -1
				}
				return 1
			})
			break
		}
	}
}

const (
	// cellMinCap is the smallest recycled cell capacity; class c holds
	// cells of exactly cellMinCap<<c slots. 16 classes cover 8..256Ki
	// slots — far beyond any observed bucket population.
	cellMinCap  = 8
	cellClasses = 16
)

// cellClass returns the smallest size class whose capacity holds n
// slots, or -1 when n exceeds the largest class.
func cellClass(n int) int {
	if n <= cellMinCap {
		return 0
	}
	c := bits.Len(uint(n-1)) - 3
	if c >= cellClasses {
		return -1
	}
	return c
}

func (w *timerWheel) getCell(class int) []event {
	if s := w.free[class]; len(s) > 0 {
		c := s[len(s)-1]
		s[len(s)-1] = nil
		w.free[class] = s[:len(s)-1]
		return c
	}
	return make([]event, 0, cellMinCap<<class)
}

func (w *timerWheel) putCell(cell []event) {
	c := cellClass(cap(cell))
	if c < 0 || cellMinCap<<c != cap(cell) {
		return // off-class capacity (never pool-issued): let it go
	}
	w.free[c] = append(w.free[c], cell[:0])
}

// growCell returns a cell of the next size class holding cell's
// contents, recycling the old array. Keeping growth inside the pool is
// what kills the hot loop's allocation churn: append's own growth path
// would drop the old array as garbage on every cascade window.
func (w *timerWheel) growCell(cell []event) []event {
	want := 2 * cap(cell)
	if want < cellMinCap {
		want = cellMinCap
	}
	c := cellClass(want)
	var next []event
	if c < 0 {
		next = make([]event, 0, want)
	} else {
		next = w.getCell(c)
	}
	next = append(next, cell...)
	for i := range cell {
		cell[i] = event{}
	}
	w.putCell(cell)
	return next
}

// overflowPushSlot / overflowPop are a minimal (at, seq) binary min-heap
// over the event struct directly — no container/heap interface boxing.
// The sift-up runs on the (at, seq) skeleton before the caller fills the
// payload fields; heap order depends only on (at, seq), so the returned
// pointer is the event's settled position.
func (w *timerWheel) overflowPushSlot(at time.Duration, seq uint64) *event {
	w.st.Overflow++
	h := append(w.overflow, event{at: at, seq: seq})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	w.overflow = h
	return &h[i]
}

func (w *timerWheel) overflowPop() event {
	h := w.overflow
	min := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = event{}
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && eventLess(&h[l], &h[small]) {
			small = l
		}
		if r < len(h) && eventLess(&h[r], &h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	w.overflow = h
	return min
}

// slotCap walks every retained event-slot array — live buckets, the
// drain slice, the free list and the overflow heap — and returns their
// total capacity in slots. Called at phase boundaries only (Footprint),
// so the 768-bucket walk is off the hot path.
func (w *timerWheel) slotCap() int64 {
	total := int64(cap(w.cur)) + int64(cap(w.overflow))
	for l := 0; l < wheelLevels; l++ {
		for b := 0; b < wheelSize; b++ {
			total += int64(cap(w.levels[l][b]))
		}
	}
	for _, class := range w.free {
		for _, c := range class {
			total += int64(cap(c))
		}
	}
	return total
}

func (w *timerWheel) stats() SchedStats { return w.st }

// SchedStats are scheduler-internal counters surfaced in `emucast bench`
// columns: how often the wheel cascaded a higher-level bucket, sorted a
// current-tick bucket, took the sorted-insert slow path, or spilled to
// the far-future overflow heap.
type SchedStats struct {
	Kind       string `json:"kind"`
	Cascades   uint64 `json:"cascades,omitempty"`
	Sorts      uint64 `json:"sorts,omitempty"`
	CurInserts uint64 `json:"cur_inserts,omitempty"`
	Overflow   uint64 `json:"overflow,omitempty"`
	MaxBucket  int    `json:"max_bucket,omitempty"`
}
