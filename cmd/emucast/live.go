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
	fs := flag.NewFlagSet("emucast live", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		specPath  = fs.String("spec", "", "scenario JSON file (alternative to a builtin name)")
		compare   = fs.Bool("compare-sim", false, "also run the simulator on the same spec and print the sim-vs-live diff")
		strict    = fs.Bool("strict", false, "with -compare-sim: exit non-zero when the diff is outside tolerances")
		timeScale = fs.Float64("time-scale", 1, "wall-clock compression: a phase of virtual duration d paces over d/scale")
		text      = fs.Bool("text", false, "print a human-readable report summary instead of JSON")
		seed      = fs.Int64("seed", 0, "override the scenario seed")
		nodes     = fs.Int("nodes", 0, "override the initial overlay size")
		jsonPath  = fs.String("json", "", "write the live report JSON to this file")
		diffPath  = fs.String("diff-json", "", "with -compare-sim: write the diff JSON to this file")
		quiet     = fs.Bool("q", false, "suppress progress logging on stderr")
		sample    = fs.Float64("trace-sample", 0, "sample this fraction of message ids with the dissemination\ntracer (same (seed,id) hash as the simulator)")
		treesPath = fs.String("trees", "", "write the live sampled tree report JSON to this file\n(implies -trace-sample 0.01)")
	)
	var ofl obsFlags
	ofl.register(fs)
	fs.Usage = func() {
		fmt.Fprintf(errOut, "usage: emucast live [flags] {-spec <file.json> | <builtin>}\n"+
			"Replays a scenario Spec on real TCP peers (loopback, ephemeral ports)\n"+
			"and reports the same per-phase metrics the simulator reports.\n"+
			"builtins: %s\n", strings.Join(scenario.BuiltinNames(), " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := loadSpec(fs, "spec", *specPath, *nodes, *seed, 0)
	if err != nil {
		return err
	}
	if *sample > 0 {
		spec.TraceSample = *sample
	} else if *treesPath != "" {
		spec.TraceSample = disstrace.DefaultRate
	}

	plane, err := ofl.open(errOut)
	if err != nil {
		return err
	}
	defer plane.close()

	opts := live.Options{TimeScale: *timeScale, Obs: plane.reg, EventLog: plane.log}
	if !*quiet {
		opts.Logf = func(format string, args ...interface{}) {
			fmt.Fprintf(errOut, format+"\n", args...)
		}
	}

	var simRep *scenario.Report
	if *compare {
		// The simulator runs first (virtual time: fast) so a live
		// playback failure cannot waste the prediction.
		eng, err := scenario.New(spec)
		if err != nil {
			return err
		}
		start := time.Now()
		simRep, err = eng.Run()
		if err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintf(errOut, "sim: %v virtual played in %v wall\n",
				simRep.Elapsed.D().Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
		}
	}

	h, err := live.New(spec, opts)
	if err != nil {
		return err
	}
	rep, err := h.Run()
	if err != nil {
		return err
	}

	if tr := h.TreeReport(); tr != nil {
		if !*quiet {
			fmt.Fprintf(errOut, "disstrace: %d sampled trees, mean depth %.2f, eager %.0f%%, mean edge reuse %.0f%%\n",
				tr.Sampled, tr.MeanDepth, tr.EagerFraction*100, tr.MeanEdgeReuse*100)
		}
		if *treesPath != "" {
			enc, err := json.MarshalIndent(tr, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*treesPath, append(enc, '\n'), 0o644); err != nil {
				return err
			}
		}
	}

	if *jsonPath != "" {
		enc, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(enc, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *text || *compare {
		fmt.Fprint(out, rep.String())
	} else {
		enc, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", enc)
	}

	if simRep != nil {
		d := live.Compare(simRep, rep, nil)
		fmt.Fprintln(out)
		fmt.Fprint(out, d.String())
		if *diffPath != "" {
			enc, err := d.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*diffPath, append(enc, '\n'), 0o644); err != nil {
				return err
			}
		}
		if *strict && !d.OK {
			return fmt.Errorf("live diff outside tolerances")
		}
	}
	return nil
}
