package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"emcast/internal/disstrace"
	"emcast/internal/live"
	"emcast/internal/scenario"
)

// runLive implements the `emucast live` subcommand: it loads a
// declarative scenario — from a JSON file via -spec, or a builtin
// archetype by name — and replays it on a fleet of real TCP peers on
// loopback with wall-clock pacing. With -compare-sim it first plays the
// same spec on the virtual-time simulator and prints the per-metric
// sim-vs-live diff.
func runLive(args []string, out, errOut io.Writer) error {
	c, err := parseLive("live", "Replays a scenario Spec on real TCP peers (loopback, ephemeral ports)\n"+
		"and reports the same per-phase metrics the simulator reports.\n", args, errOut)
	if err != nil {
		return err
	}
	_, err = c.play(out, errOut)
	return err
}

// liveCmd is a parsed live command line: the spec to play and what to do
// around the playback. `emucast live` and `emucast chaos` share it.
type liveCmd struct {
	spec                          scenario.Spec
	compare, strict, text, quiet  bool
	timeScale                     float64
	jsonPath, diffPath, treesPath string
	ofl                           obsFlags
}

// parseLive parses the live flag set for subcommand name; about is the
// usage text's description.
func parseLive(name, about string, args []string, errOut io.Writer) (*liveCmd, error) {
	var c liveCmd
	fs := flag.NewFlagSet("emucast "+name, flag.ContinueOnError)
	fs.SetOutput(errOut)
	specPath := fs.String("spec", "", "scenario JSON file (alternative to a builtin name)")
	fs.BoolVar(&c.compare, "compare-sim", false, "also run the simulator on the same spec and print the sim-vs-live diff")
	fs.BoolVar(&c.strict, "strict", false, "with -compare-sim: exit non-zero when the diff is outside tolerances")
	fs.Float64Var(&c.timeScale, "time-scale", 1, "wall-clock compression: a phase of virtual duration d paces over d/scale")
	fs.BoolVar(&c.text, "text", false, "print a human-readable report summary instead of JSON")
	seed := fs.Int64("seed", 0, "override the scenario seed")
	nodes := fs.Int("nodes", 0, "override the initial overlay size")
	fs.StringVar(&c.jsonPath, "json", "", "write the live report JSON to this file")
	fs.StringVar(&c.diffPath, "diff-json", "", "with -compare-sim: write the diff JSON to this file")
	fs.BoolVar(&c.quiet, "q", false, "suppress progress logging on stderr")
	sample := fs.Float64("trace-sample", 0, "sample this fraction of message ids with the dissemination\ntracer (same (seed,id) hash as the simulator)")
	fs.StringVar(&c.treesPath, "trees", "", "write the live sampled tree report JSON to this file, or '-'\nto embed it in the report output (implies -trace-sample 0.01)")
	c.ofl.register(fs)
	fs.Usage = func() {
		fmt.Fprintf(errOut, "usage: emucast %s [flags] {-spec <file.json> | <builtin>}\n%s"+
			"builtins: %s\n", name, about, strings.Join(scenario.BuiltinNames(), " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	var err error
	if c.spec, err = loadSpec(fs, "spec", *specPath, *nodes, *seed, 0); err != nil {
		return nil, err
	}
	if *sample > 0 {
		c.spec.TraceSample = *sample
	} else if c.treesPath != "" {
		c.spec.TraceSample = disstrace.DefaultRate
	}
	return &c, nil
}

// play runs the parsed command: the optional simulator prediction, the
// live playback, the report on out and the files the flags ask for. It
// returns the live report.
func (c *liveCmd) play(out, errOut io.Writer) (*scenario.Report, error) {
	plane, err := c.ofl.open(errOut)
	if err != nil {
		return nil, err
	}
	defer plane.close()

	opts := live.Options{TimeScale: c.timeScale, Obs: plane.reg, EventLog: plane.log}
	if !c.quiet {
		opts.Logf = func(format string, args ...interface{}) {
			fmt.Fprintf(errOut, format+"\n", args...)
		}
	}

	var simRep *scenario.Report
	if c.compare {
		// The simulator runs first (virtual time: fast) so a live
		// playback failure cannot waste the prediction.
		eng, err := scenario.New(c.spec)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		simRep, err = eng.Run()
		if err != nil {
			return nil, err
		}
		if !c.quiet {
			fmt.Fprintf(errOut, "sim: %v virtual played in %v wall\n",
				simRep.Elapsed.D().Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
		}
	}

	h, err := live.New(c.spec, opts)
	if err != nil {
		return nil, err
	}
	rep, err := h.Run()
	if err != nil {
		return nil, err
	}

	if tr := h.TreeReport(); tr != nil && !c.quiet {
		fmt.Fprintf(errOut, "disstrace: %d sampled trees, mean depth %.2f, eager %.0f%%, mean edge reuse %.0f%%\n",
			tr.Sampled, tr.MeanDepth, tr.EagerFraction*100, tr.MeanEdgeReuse*100)
	}
	if err := writeTreeArtifacts(h.DissTracer(), rep, c.treesPath, "", ""); err != nil {
		return nil, err
	}

	if c.jsonPath != "" {
		enc, err := rep.JSON()
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(c.jsonPath, append(enc, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	if c.text || c.compare {
		fmt.Fprint(out, rep.String())
	} else {
		enc, err := rep.JSON()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "%s\n", enc)
	}

	if simRep != nil {
		d := live.Compare(simRep, rep, nil)
		fmt.Fprintln(out)
		fmt.Fprint(out, d.String())
		if c.diffPath != "" {
			enc, err := d.JSON()
			if err != nil {
				return nil, err
			}
			if err := os.WriteFile(c.diffPath, append(enc, '\n'), 0o644); err != nil {
				return nil, err
			}
		}
		if c.strict && !d.OK {
			return nil, fmt.Errorf("live diff outside tolerances")
		}
	}
	return rep, nil
}
