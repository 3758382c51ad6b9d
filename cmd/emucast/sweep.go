package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"emcast/internal/disstrace"
	"emcast/internal/sweep"
)

// runSweep implements the `emucast sweep` subcommand: it builds a sweep
// spec — from a JSON file via -f, or from the -strategies/-scenarios/
// -replicates flags — executes the strategy × scenario × seed grid on a
// worker pool, and prints the aggregated comparison matrix.
func runSweep(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("emucast sweep", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		file       = fs.String("f", "", "sweep spec JSON file (alternative to the flags below)")
		strategies = fs.String("strategies", "", "comma-separated strategies (default flat,ttl,radius,ranked,hybrid)")
		scenarios  = fs.String("scenarios", "", "comma-separated builtin scenario names or spec files\n(default steady-poisson,crash-wave,kill-best,partition-heal)")
		replicates = fs.Int("replicates", 0, "seed replicates per cell (default 3)")
		seed       = fs.Int64("seed", 0, "base seed; replicate r runs with seed base+r (default 1)")
		nodesCSV   = fs.String("nodes", "", "comma-separated overlay-size axis (default: each scenario's own)")
		scale      = fs.Int("scale", 0, "topology scale-down factor override")
		workers    = fs.Int("workers", 0, "concurrent cell runs (default GOMAXPROCS)")
		sample     = fs.Float64("trace-sample", 0, "sample this fraction of each cell's message ids with the\ndissemination tracer (matrix bytes are unchanged)")
		treesPath  = fs.String("trees", "", "write per-cell sampled tree reports as JSON to this file\n(implies -trace-sample 0.01)")
		format     = fs.String("format", "table", "output format: table, markdown, csv or json")
		jsonPath   = fs.String("json", "", "also write the matrix JSON to this file")
		outPath    = fs.String("o", "", "write output to this file instead of stdout")
		verbose    = fs.Bool("v", false, "log per-cell progress to stderr")
		progress   = fs.Duration("progress", 0, "print progress lines to stderr at most this often\n(-v prints every cell)")
	)
	var ofl obsFlags
	ofl.register(fs)
	fs.Usage = func() {
		fmt.Fprintf(errOut, "usage: emucast sweep [flags]\n"+
			"       emucast sweep -f <sweep.json> [flags]\n"+
			"With no flags, sweeps the paper's five strategies across four scenario\n"+
			"archetypes with 3 seed replicates each (full size — use -nodes/-scale\n"+
			"for quick runs).\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	var spec sweep.Spec
	baseDir := "."
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		baseDir = filepath.Dir(*file)
		spec, err = sweep.Parse(f, baseDir)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %v", *file, err)
		}
	}

	// Flag overrides apply on top of the file (or build the whole spec).
	if *strategies != "" {
		spec.Strategies = splitCSV(*strategies)
	}
	if *scenarios != "" {
		spec.Scenarios = nil
		for _, s := range splitCSV(*scenarios) {
			if strings.HasSuffix(s, ".json") {
				// Flag-supplied paths are relative to the working
				// directory, not to the -f sweep file's directory —
				// absolutize before Resolve applies its baseDir.
				abs, err := filepath.Abs(s)
				if err != nil {
					return fmt.Errorf("bad -scenarios path %q: %v", s, err)
				}
				spec.Scenarios = append(spec.Scenarios, sweep.ScenarioRef{File: abs})
			} else {
				spec.Scenarios = append(spec.Scenarios, sweep.ScenarioRef{Builtin: s})
			}
		}
	}
	if *file == "" && len(spec.Scenarios) == 0 {
		for _, s := range []string{"steady-poisson", "crash-wave", "kill-best", "partition-heal"} {
			spec.Scenarios = append(spec.Scenarios, sweep.ScenarioRef{Builtin: s})
		}
	}
	if *replicates > 0 {
		spec.Replicates = *replicates
	}
	if *seed != 0 {
		spec.BaseSeed = *seed
	}
	if *nodesCSV != "" {
		spec.Nodes = nil
		for _, s := range splitCSV(*nodesCSV) {
			n, err := strconv.Atoi(s)
			if err != nil {
				return fmt.Errorf("bad -nodes value %q: %v", s, err)
			}
			spec.Nodes = append(spec.Nodes, n)
		}
	}
	if *scale > 0 {
		spec.TopologyScale = *scale
	}
	if *workers > 0 {
		spec.Workers = *workers
	}
	if *sample > 0 {
		spec.TraceSample = *sample
	} else if *treesPath != "" {
		spec.TraceSample = disstrace.DefaultRate
	}
	switch *format {
	case "table", "markdown", "md", "csv", "json":
	default:
		return fmt.Errorf("unknown format %q (want table, markdown, csv or json)", *format)
	}
	if err := spec.Resolve(baseDir); err != nil {
		return err
	}
	plane, err := ofl.open(errOut)
	if err != nil {
		return err
	}
	defer plane.close()
	spec.Obs = plane.reg
	spec.EventLog = plane.log

	// The OnCell hook both accumulates the run's emulator event count (for
	// the final throughput summary) and prints progress: every cell with
	// -v, throttled to the -progress interval otherwise.
	start := time.Now()
	var totalEvents uint64
	var lastLine time.Time
	// cellTrees collects per-cell tree reports for -trees; OnCell runs
	// serialised by the sweep runner, so plain map writes are safe.
	cellTrees := make(map[string]*disstrace.TreeReport)
	spec.OnCell = func(c sweep.CellDone) {
		totalEvents += c.Events
		if c.Trees != nil {
			cellTrees[fmt.Sprintf("%s/%s/n%d/seed%d", c.Scenario, c.Strategy, c.Nodes, c.Seed)] = c.Trees
		}
		now := time.Now()
		if !*verbose && (*progress <= 0 || (now.Sub(lastLine) < *progress && c.Done != c.Total)) {
			return
		}
		lastLine = now
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		eps := float64(totalEvents) / now.Sub(start).Seconds()
		fmt.Fprintf(errOut, "sweep: %d/%d cells done (%s/%s n=%d seed=%d in %s) %s events/sec heap %s\n",
			c.Done, c.Total, c.Scenario, c.Strategy, c.Nodes, c.Seed,
			c.Duration.Round(time.Millisecond), humanCount(eps), humanBytes(ms.HeapInuse))
	}

	m, err := spec.Run()
	if err != nil {
		return err
	}
	wall := time.Since(start)
	fmt.Fprintf(errOut, "sweep: %d cells in %s, %d emulator events, %s events/sec\n",
		len(m.Cells), wall.Round(time.Millisecond), totalEvents,
		humanCount(float64(totalEvents)/wall.Seconds()))

	var rendered []byte
	switch *format {
	case "table":
		rendered = []byte(m.Text())
	case "markdown", "md":
		rendered = []byte(m.Markdown())
	case "csv":
		rendered = []byte(m.CSV())
	case "json":
		enc, err := m.JSON()
		if err != nil {
			return err
		}
		rendered = append(enc, '\n')
	}

	if *treesPath != "" {
		enc, err := json.MarshalIndent(cellTrees, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*treesPath, append(enc, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		enc, err := m.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(enc, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *outPath != "" {
		return os.WriteFile(*outPath, rendered, 0o644)
	}
	_, err = out.Write(rendered)
	return err
}

// splitCSV splits a comma-separated flag value, trimming blanks.
func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
