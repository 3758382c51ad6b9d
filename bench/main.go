// Command bench is the repository's reference benchmark: seven workloads
// over both substrates (the deterministic emulator and real TCP on
// loopback), end-to-end metrics with bounds, and a per-layer ledger from
// counters, isolated layer drivers and a traced run. See README.md.
//
// It drives the product only through public entry points, so every layer is
// measured from outside, and every timed region runs in a fresh child
// process of this same binary.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	reps      int
	micro     bool
	quick     bool
	compare   bool
	child     string // -run: play one iteration of this workload and print it
	mode      string
	tracePath string // traced child: where to write the sampled trees
}

func run(args []string) error {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload and print one JSON result line (the driver's contract)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 0, "with -workload: measure for this long (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&o.trace, "trace", 0, "1 adds the traced run, the CPU profile fold and the isolated layer drivers")
	fs.IntVar(&o.reps, "reps", 5, "without -workload: repetitions of every workload, never below 3")
	fs.BoolVar(&o.micro, "micro", false, "without -workload: also run the isolated layer drivers")
	fs.BoolVar(&o.quick, "quick", false, "shrink every workload to a smoke test (100 nodes / 4 peers)")
	fs.BoolVar(&o.compare, "compare", false, "compare two results.json files: -compare a.json b.json")
	fs.StringVar(&o.child, "run", "", "internal: play one iteration of a workload in this process")
	fs.StringVar(&o.mode, "mode", modePlain, "internal: child mode")
	fs.StringVar(&o.tracePath, "tracefile", "", "internal: traced child's output file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if o.child != "" {
		return runChild(o)
	}
	m, err := loadManifest()
	if err != nil {
		return err
	}
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			return errors.New("-compare needs two results.json files")
		}
		return compareFiles(m, fs.Arg(0), fs.Arg(1))
	case fs.NArg() != 0:
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	case o.workload != "":
		return runContract(m, o)
	default:
		return runSuite(m, o)
	}
}

// runChild plays one iteration in this process and prints it as one JSON
// line for the parent.
func runChild(o options) error {
	def, err := lookupWorkload(o.child, o.quick)
	if err != nil {
		return err
	}
	var it *iteration
	switch {
	case o.mode == modeTraced && def.sim != nil:
		it, err = runTracedSim(o.child, def.sim, o.seed, o.tracePath)
	case o.mode == modeTraced:
		it, err = runTracedLive(o.child, def.live, o.seed, o.tracePath)
	case def.sim != nil:
		it, err = runSim(o.child, def.sim, o.seed, o.mode)
	default:
		it, err = runLive(o.child, def.live, o.seed, o.mode)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(it)
}
