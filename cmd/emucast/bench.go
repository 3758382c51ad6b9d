package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"emcast/internal/emunet"
	"emcast/internal/obs"
	"emcast/internal/scenario"
)

// runBench implements the `emucast bench` subcommand: a fixed
// flat-strategy workload (30s of Poisson rate-2 traffic plus drain —
// the scaling-cell shape) run at one or more population sizes, with
// events/sec, wall time, peak heap, the hot-loop event-class breakdown
// and the per-subsystem footprint recorded per size. The output is a
// machine-readable BENCH_<rev>.json so CI can archive a throughput
// figure per revision and regressions show up as a diffable artifact
// rather than an anecdote. With -compare the run doubles as a gate:
// it exits non-zero when events/sec drops or peak heap grows beyond
// -tolerance against a baseline file, and -history appends one JSON
// line per run to a cumulative log.
func runBench(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("emucast bench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		rev       = fs.String("rev", "", "revision label recorded in the result and default filename\n(default: git rev-parse --short HEAD, else \"dev\")")
		sizesCSV  = fs.String("sizes", "1000,10000", "comma-separated population sizes to bench")
		scale     = fs.Int("scale", 0, "topology scale-down factor (0 = auto: 2 up to 1000 nodes,\n1 — paper-size routing — above)")
		seed      = fs.Int64("seed", 1, "scenario seed")
		jsonPath  = fs.String("json", "", "output file (default BENCH_<rev>.json)")
		sample    = fs.Float64("trace-sample", 0, "also enable the dissemination tracer at this rate, to\nmeasure its overhead against a 0-rate run")
		compare   = fs.String("compare", "", "baseline BENCH_*.json to gate against: exit non-zero when\nevents/sec regresses or peak heap grows beyond -tolerance")
		tolerance = fs.Float64("tolerance", 0.15, "relative tolerance for -compare (0.15 = 15%)")
		history   = fs.String("history", "", "append one compact JSON line per run to this file\n(e.g. BENCH_HISTORY.jsonl)")
	)
	fs.Usage = func() {
		fmt.Fprintf(errOut, "usage: emucast bench [flags]\n"+
			"Runs the fixed scaling-cell workload (flat strategy, 30s Poisson\n"+
			"rate-2 traffic) at each -sizes population and writes BENCH_<rev>.json\n"+
			"with events/sec, wall seconds, peak heap, the deliver/timer event\n"+
			"breakdown and per-subsystem footprint bytes per size.\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *rev == "" {
		*rev = gitRev()
	}

	var sizes []int
	for _, s := range splitCSV(*sizesCSV) {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -sizes value %q", s)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return fmt.Errorf("-sizes is empty")
	}

	result := benchResult{Rev: *rev, Go: runtime.Version(), TraceSample: *sample}
	for _, n := range sizes {
		sc := *scale
		if sc == 0 {
			if n <= 1000 {
				sc = 2
			} else {
				sc = 1
			}
		}
		cell, err := benchCellRun(n, sc, *seed, *sample, errOut)
		if err != nil {
			return err
		}
		result.Cells = append(result.Cells, cell)
		fmt.Fprintf(out, "bench: n=%d %s events in %.2fs, %s events/sec, peak heap %s\n",
			n, humanCount(float64(cell.Events)), cell.WallSeconds,
			humanCount(cell.EventsPerSec), humanBytes(cell.PeakHeapBytes))
		fmt.Fprintf(out, "bench:   classes: %s deliver, %s timer\n",
			humanCount(float64(cell.DeliverEvents)), humanCount(float64(cell.TimerEvents)))
		fmt.Fprintf(out, "bench:   sched %s: %s cascades, %s sorts, %s cur-inserts, %s overflow, max bucket %d\n",
			cell.Sched.Kind, humanCount(float64(cell.Sched.Cascades)),
			humanCount(float64(cell.Sched.Sorts)), humanCount(float64(cell.Sched.CurInserts)),
			humanCount(float64(cell.Sched.Overflow)), cell.Sched.MaxBucket)
		for _, sub := range footprintOrder(cell.FootprintBytes) {
			fmt.Fprintf(out, "bench:   footprint %-10s %10s (%s/node)\n", sub,
				humanBytes(uint64(cell.FootprintBytes[sub])),
				humanBytes(uint64(cell.FootprintBytes[sub]/int64(n))))
		}
	}

	path := *jsonPath
	if path == "" {
		path = "BENCH_" + *rev + ".json"
	}
	enc, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "bench: wrote %s\n", path)

	if *history != "" {
		if err := appendHistory(*history, &result); err != nil {
			return err
		}
		fmt.Fprintf(out, "bench: appended to %s\n", *history)
	}
	if *compare != "" {
		if err := compareBaseline(*compare, &result, *tolerance, out); err != nil {
			return err
		}
	}
	return nil
}

// gitRev resolves the default revision label: the short commit hash when
// the working directory is a git checkout, "dev" otherwise.
func gitRev() string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	b, err := cmd.Output()
	if err != nil {
		return "dev"
	}
	rev := strings.TrimSpace(string(b))
	if rev == "" {
		return "dev"
	}
	return rev
}

// benchResult is the BENCH_<rev>.json document.
type benchResult struct {
	Rev         string      `json:"rev"`
	Go          string      `json:"go"`
	TraceSample float64     `json:"trace_sample,omitempty"`
	Cells       []benchCell `json:"cells"`
}

// benchCell is one population size's measurement.
type benchCell struct {
	Nodes         int     `json:"nodes"`
	Events        uint64  `json:"events"`
	WallSeconds   float64 `json:"wall_s"`
	EventsPerSec  float64 `json:"events_per_sec"`
	PeakHeapBytes uint64  `json:"peak_heap_bytes"`

	// Hot-loop breakdown: how the event count splits by class.
	DeliverEvents uint64 `json:"deliver_events"`
	TimerEvents   uint64 `json:"timer_events"`

	// Sched is the event scheduler's internal counters: which
	// implementation ran and, for the timer wheel, how often it
	// cascaded, sorted a bucket, took the sorted-insert slow path or
	// spilled to the overflow heap — the numbers that say whether the
	// workload stayed on the wheel's O(1) fast path.
	Sched emunet.SchedStats `json:"sched"`

	// FootprintBytes is the end-of-run per-subsystem retained-byte
	// accounting (deterministic arithmetic, not heap sampling).
	FootprintBytes map[string]int64 `json:"footprint_bytes,omitempty"`
}

// benchCellRun plays the fixed workload at one size and measures it.
// Peak heap is sampled by a background goroutine at ~50ms resolution,
// with one final ReadMemStats after the run so short cells can never
// report a zero peak; a GC between samples can still hide a short spike.
func benchCellRun(nodes, scale int, seed int64, sample float64, errOut io.Writer) (benchCell, error) {
	traffic := []scenario.TrafficSpec{{Kind: scenario.TrafficPoisson, Rate: 2, Senders: scenario.SendersUniform}}
	spec := scenario.Spec{
		Name:          "bench",
		Seed:          seed,
		Nodes:         nodes,
		Strategy:      "flat",
		TopologyScale: scale,
		Drain:         scenario.Duration(5 * time.Second),
		TraceSample:   sample,
		Phases: []scenario.Phase{
			{Name: "steady", Duration: scenario.Duration(15 * time.Second), Traffic: traffic},
			{Name: "sustained", Duration: scenario.Duration(15 * time.Second), Traffic: traffic},
		},
	}
	eng, err := scenario.New(spec)
	if err != nil {
		return benchCell{}, err
	}

	stop := make(chan struct{})
	peak := make(chan uint64, 1)
	go func() {
		var max uint64
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > max {
				max = ms.HeapInuse
			}
			select {
			case <-stop:
				peak <- max
				return
			case <-t.C:
			}
		}
	}()

	fmt.Fprintf(errOut, "bench: running n=%d scale=%d...\n", nodes, scale)
	start := time.Now()
	if _, err := eng.Run(); err != nil {
		close(stop)
		<-peak
		return benchCell{}, err
	}
	wall := time.Since(start)
	// Take a final sample before stopping the sampler: a cell shorter
	// than one ticker period would otherwise report zero peak heap.
	var final runtime.MemStats
	runtime.ReadMemStats(&final)
	close(stop)
	peakHeap := <-peak
	if final.HeapInuse > peakHeap {
		peakHeap = final.HeapInuse
	}

	net := eng.Runner().Network()
	events := eng.Runner().Events()
	return benchCell{
		Nodes:          nodes,
		Events:         events,
		WallSeconds:    wall.Seconds(),
		EventsPerSec:   float64(events) / wall.Seconds(),
		PeakHeapBytes:  peakHeap,
		DeliverEvents:  events - net.TimerFires,
		TimerEvents:    net.TimerFires,
		Sched:          net.SchedStats(),
		FootprintBytes: obs.FootprintBytesMap(eng.Runner().Footprints()),
	}, nil
}

// footprintOrder returns the subsystem names of a footprint map sorted by
// descending bytes (ties by name), the order the stdout table prints in.
func footprintOrder(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if m[b] > m[a] || (m[b] == m[a] && b < a) {
				out[j-1], out[j] = b, a
			} else {
				break
			}
		}
	}
	return out
}

// historyLine is one BENCH_HISTORY.jsonl record: the run's identity plus
// its cells, flattened for one-line-per-run greppability.
type historyLine struct {
	Time  string      `json:"time"`
	Rev   string      `json:"rev"`
	Go    string      `json:"go"`
	Cells []benchCell `json:"cells"`
}

// appendHistory appends the run as one compact JSON line.
func appendHistory(path string, r *benchResult) error {
	line, err := json.Marshal(historyLine{
		Time:  time.Now().UTC().Format(time.RFC3339),
		Rev:   r.Rev,
		Go:    r.Go,
		Cells: r.Cells,
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(append(line, '\n'))
	return err
}

// compareBaseline gates the run against a baseline BENCH_*.json: for each
// population present in both, events/sec must not drop below
// baseline*(1-tol) and peak heap must not grow above baseline*(1+tol).
// Sizes only one side ran are reported and skipped, never failed — the
// gate compares like with like.
func compareBaseline(path string, cur *benchResult, tol float64, out io.Writer) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("bench -compare: %v", err)
	}
	var base benchResult
	if err := json.Unmarshal(b, &base); err != nil {
		return fmt.Errorf("bench -compare: parsing %s: %v", path, err)
	}
	baseBy := make(map[int]benchCell, len(base.Cells))
	for _, c := range base.Cells {
		baseBy[c.Nodes] = c
	}
	var failures []string
	for _, c := range cur.Cells {
		old, ok := baseBy[c.Nodes]
		if !ok {
			fmt.Fprintf(out, "bench: compare n=%d: no baseline cell, skipped\n", c.Nodes)
			continue
		}
		evDelta := c.EventsPerSec/old.EventsPerSec - 1
		heapDelta := float64(c.PeakHeapBytes)/float64(old.PeakHeapBytes) - 1
		fmt.Fprintf(out, "bench: compare n=%d vs %s: events/sec %+.1f%%, peak heap %+.1f%%\n",
			c.Nodes, base.Rev, 100*evDelta, 100*heapDelta)
		if evDelta < -tol {
			failures = append(failures, fmt.Sprintf(
				"n=%d events/sec regressed %.1f%% (%.0f -> %.0f, tolerance %.0f%%)",
				c.Nodes, -100*evDelta, old.EventsPerSec, c.EventsPerSec, 100*tol))
		}
		if heapDelta > tol {
			failures = append(failures, fmt.Sprintf(
				"n=%d peak heap grew %.1f%% (%s -> %s, tolerance %.0f%%)",
				c.Nodes, 100*heapDelta, humanBytes(old.PeakHeapBytes),
				humanBytes(c.PeakHeapBytes), 100*tol))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench regression vs %s:\n  %s", base.Rev, strings.Join(failures, "\n  "))
	}
	return nil
}
