package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"emcast/internal/disstrace"
	"emcast/internal/scenario"
)

// runScenario implements the `emucast scenario` subcommand: it loads a
// declarative scenario — from a JSON file via -f, or a builtin archetype
// by name — plays it on the simulator, and prints the JSON report.
func runScenario(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("emucast scenario", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		file     = fs.String("f", "", "scenario JSON file (alternative to a builtin name)")
		list     = fs.Bool("list", false, "list builtin scenarios and exit")
		dump     = fs.Bool("dump", false, "print the scenario spec JSON instead of running it")
		text     = fs.Bool("text", false, "print a human-readable summary instead of JSON")
		nodes    = fs.Int("nodes", 0, "override the initial overlay size")
		seed     = fs.Int64("seed", 0, "override the scenario seed")
		scale    = fs.Int("scale", 0, "override the topology scale-down factor")
		sample   = fs.Float64("trace-sample", 0, "sample this fraction of message ids with the dissemination\ntracer (deterministic per seed; report bytes are unchanged)")
		trees    = fs.String("trees", "", "write the sampled tree report JSON to this file, or '-' to\nembed it in the report output (implies -trace-sample 0.01)")
		timeline = fs.String("timeline", "", "write all sampled message timelines as Chrome trace-event /\nPerfetto JSON to this file (implies -trace-sample 0.01)")
		dot      = fs.String("dot", "", "write the final sampled tree as Graphviz DOT to this file\n(implies -trace-sample 0.01)")
	)
	var ofl obsFlags
	ofl.register(fs)
	fs.Usage = func() {
		fmt.Fprintf(errOut, "usage: emucast scenario [flags] {-f <file.json> | <builtin>}\n")
		fmt.Fprintf(errOut, "builtins: %s\n", strings.Join(scenario.BuiltinNames(), " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, n := range scenario.BuiltinNames() {
			fmt.Fprintln(out, n)
		}
		return nil
	}

	spec, err := loadSpec(fs, "f", *file, *nodes, *seed, *scale)
	if err != nil {
		return err
	}
	if *sample > 0 {
		spec.TraceSample = *sample
	} else if *trees != "" || *timeline != "" || *dot != "" {
		spec.TraceSample = disstrace.DefaultRate
	}

	if *dump {
		enc, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", enc)
		return nil
	}

	plane, err := ofl.open(errOut)
	if err != nil {
		return err
	}
	defer plane.close()
	spec.Obs = plane.reg
	spec.EventLog = plane.log

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
	fmt.Fprintf(errOut, "scenario: %d emulator events in %s, %s events/sec\n",
		events, wall.Round(time.Millisecond), humanCount(float64(events)/wall.Seconds()))
	if tr := eng.TreeReport(); tr != nil {
		fmt.Fprintf(errOut, "disstrace: %d sampled trees, mean depth %.2f, eager %.0f%%, mean edge reuse %.0f%%\n",
			tr.Sampled, tr.MeanDepth, tr.EagerFraction*100, tr.MeanEdgeReuse*100)
	}
	if err := writeTreeArtifacts(eng.DissTracer(), rep, *trees, *timeline, *dot); err != nil {
		return err
	}
	if *text {
		fmt.Fprint(out, rep.String())
		return nil
	}
	enc, err := rep.JSON()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", enc)
	return nil
}

// loadSpec resolves the one scenario a subcommand plays — the JSON file
// given by its file flag (named flagName, for the error text) or the
// builtin named by the single positional argument — and applies the
// command's -nodes/-seed/-scale overrides (zero = keep the spec's value).
func loadSpec(fs *flag.FlagSet, flagName, file string, nodes int, seed int64, scale int) (scenario.Spec, error) {
	var spec scenario.Spec
	switch {
	case file != "" && fs.NArg() == 0:
		f, err := os.Open(file)
		if err != nil {
			return spec, err
		}
		defer f.Close()
		if spec, err = scenario.Parse(f); err != nil {
			return spec, fmt.Errorf("%s: %v", file, err)
		}
	case file == "" && fs.NArg() == 1:
		var err error
		if spec, err = scenario.Builtin(fs.Arg(0)); err != nil {
			return spec, err
		}
	default:
		fs.Usage()
		return spec, fmt.Errorf("expected exactly one of -%s <file.json> or a builtin name", flagName)
	}
	if nodes > 0 {
		spec.Nodes = nodes
	}
	if seed != 0 {
		spec.Seed = seed
	}
	if scale > 0 {
		spec.TopologyScale = scale
	}
	return spec, nil
}

// writeTreeArtifacts writes the dissemination-trace files a run was asked
// for: the tree report (to a file, or embedded in rep when the path is
// "-"), the Perfetto/Chrome timeline, and the final-tree DOT (only when a
// tree was sampled). Without a tracer (d nil) it does nothing.
func writeTreeArtifacts(d *disstrace.Tracer, rep *scenario.Report, trees, timeline, dot string) error {
	if d == nil {
		return nil
	}
	tr := d.Report()
	if trees == "-" {
		rep.Trees = tr
	} else if trees != "" {
		enc, err := json.MarshalIndent(tr, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(trees, append(enc, '\n'), 0o644); err != nil {
			return err
		}
	}
	if timeline != "" {
		f, err := os.Create(timeline)
		if err != nil {
			return err
		}
		if err := d.WriteTimeline(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if dot != "" && tr.Sampled > 0 {
		f, err := os.Create(dot)
		if err != nil {
			return err
		}
		if err := d.WriteDOT(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
