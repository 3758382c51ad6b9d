package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"emcast/internal/disstrace"
	"emcast/internal/scenario"
)

// runTrace implements the `emucast trace` subcommand: it plays one
// scenario with the dissemination tracer enabled and writes the full
// artifact set into a directory — the per-message tree report
// (trees.json), the Chrome trace-event / Perfetto timeline
// (timeline.json), and the final sampled tree as Graphviz DOT
// (tree.dot). It is `emucast scenario -trees -timeline -dot` with the
// paths pre-wired (the same loader and the same artifact writer), for
// one-command captures in CI and demos.
func runTrace(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("emucast trace", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		file   = fs.String("f", "", "scenario JSON file (alternative to a builtin name)")
		outDir = fs.String("out", "trace-out", "directory for trees.json, timeline.json and tree.dot\n(created if missing)")
		sample = fs.Float64("sample", disstrace.DefaultRate, "fraction of message ids to sample (deterministic per seed)")
		nodes  = fs.Int("nodes", 0, "override the initial overlay size")
		seed   = fs.Int64("seed", 0, "override the scenario seed")
		scale  = fs.Int("scale", 0, "override the topology scale-down factor")
	)
	fs.Usage = func() {
		fmt.Fprintf(errOut, "usage: emucast trace [flags] {-f <file.json> | <builtin>}\n"+
			"Runs one scenario with dissemination tracing and writes trees.json,\n"+
			"timeline.json (Chrome trace-event / Perfetto) and tree.dot to -out.\n")
		fmt.Fprintf(errOut, "builtins: %s\n", strings.Join(scenario.BuiltinNames(), " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := loadSpec(fs, "f", *file, *nodes, *seed, *scale)
	if err != nil {
		return err
	}
	if *sample <= 0 || *sample > 1 {
		return fmt.Errorf("-sample %v outside (0, 1]", *sample)
	}
	spec.TraceSample = *sample

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	eng, err := scenario.New(spec)
	if err != nil {
		return err
	}
	start := time.Now()
	rep, err := eng.Run()
	if err != nil {
		return err
	}
	wall := time.Since(start)
	events := eng.Runner().Events()
	fmt.Fprintf(errOut, "trace: %d emulator events in %s, %s events/sec\n",
		events, wall.Round(time.Millisecond), humanCount(float64(events)/wall.Seconds()))

	tr := eng.TreeReport()
	fmt.Fprintf(out, "trace: %d sampled trees (rate %g) over %d messages sent\n",
		tr.Sampled, *sample, rep.Overall.MessagesSent)
	if tr.Sampled > 0 {
		fmt.Fprintf(out, "trace: mean depth %.2f (max %d), eager %.0f%%, mean edge reuse %.0f%%, top-link share %.0f%%\n",
			tr.MeanDepth, tr.MaxDepth, tr.EagerFraction*100, tr.MeanEdgeReuse*100, tr.FinalWindowTopShare*100)
	}

	treesPath := filepath.Join(*outDir, "trees.json")
	timelinePath := filepath.Join(*outDir, "timeline.json")
	dotPath := filepath.Join(*outDir, "tree.dot")
	if err := writeTreeArtifacts(eng, rep, treesPath, timelinePath, dotPath); err != nil {
		return err
	}
	fmt.Fprintf(out, "trace: wrote %s\n", treesPath)
	fmt.Fprintf(out, "trace: wrote %s (open in ui.perfetto.dev or chrome://tracing)\n", timelinePath)
	if tr.Sampled > 0 {
		fmt.Fprintf(out, "trace: wrote %s (render with `dot -Tsvg`)\n", dotPath)
	}
	return nil
}
