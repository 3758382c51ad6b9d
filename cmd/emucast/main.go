// Command emucast reproduces the evaluation of "Emergent Structure in
// Unstructured Epidemic Multicast" (DSN 2007): it runs any of the paper's
// experiments over the simulated network and prints the same rows/series
// the paper reports.
//
// Usage:
//
//	emucast [flags] <experiment>
//
// Experiments: t1 (topology stats), fig4 (emergent structure), fig5a
// (latency/bandwidth trade-off), fig5b (reliability), fig5c (hybrid),
// fig6 (noise sweeps), s1 (run statistics), s2 (200-node validation),
// a1 (gossip-based ranking extension), a2 (churn extension), map (Fig. 4
// per-connection plot data), all.
//
// Beyond the paper's fixed workloads, the scenario subcommand plays
// declarative scenarios — composable traffic generators, churn schedules
// and network dynamics — and prints JSON metrics:
//
//	emucast scenario -f <file.json>
//	emucast scenario <builtin>           (see `emucast scenario -list`)
//
// The sweep subcommand crosses strategies × scenarios × seed replicates
// into one parallel comparison matrix with mean±stddev statistics and
// per-metric winners (see examples/sweeps for runnable specs):
//
//	emucast sweep                         (paper's five strategies × four archetypes)
//	emucast sweep -f examples/sweeps/quick.json
//	emucast sweep -strategies ranked,flat -scenarios crash-wave -replicates 5
//
// The live subcommand replays the same scenario Specs on a fleet of real
// TCP peers (loopback, ephemeral ports) with wall-clock pacing, and with
// -compare-sim diffs the live report against the simulator's prediction
// metric by metric:
//
//	emucast live -spec examples/scenarios/live-smoke.json -compare-sim
//
// The chaos subcommand is live on a Spec that schedules fault-* events —
// link drop, slow links, a transport stall, a crash wave — plus a
// recovery verdict: atomic delivery in the first phase and in the last
// (after the clear), and no goroutine left behind once the fleet closes:
//
//	emucast chaos -spec examples/scenarios/chaos-faults.json -obs-log chaos.jsonl
//
// The scenario subcommand's -trees, -timeline and -dot flags run it with
// dissemination tracing on and write the artifact set — per-message tree
// report, Chrome trace-event/Perfetto timeline, Graphviz DOT:
//
//	emucast scenario -trees trees.json -timeline timeline.json -dot tree.dot steady-poisson
//
// The bench subcommand measures emulator throughput (events/sec, wall
// time, peak heap) over a fixed flat-strategy workload at one or more
// population sizes and writes a machine-readable BENCH_<rev>.json:
//
//	emucast bench -rev $(git rev-parse --short HEAD) -sizes 1000,10000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"emcast/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "emucast: %v\n", err)
		os.Exit(2)
	}
}

// run parses args and executes the selected experiment, writing results to
// out. It is separated from main for testability.
func run(args []string, out, errOut io.Writer) error {
	if len(args) > 0 && args[0] == "scenario" {
		return runScenario(args[1:], out, errOut)
	}
	if len(args) > 0 && args[0] == "sweep" {
		return runSweep(args[1:], out, errOut)
	}
	if len(args) > 0 && args[0] == "live" {
		return runLive(args[1:], out, errOut)
	}
	if len(args) > 0 && args[0] == "chaos" {
		return runChaos(args[1:], out, errOut)
	}
	if len(args) > 0 && args[0] == "bench" {
		return runBench(args[1:], out, errOut)
	}
	fs := flag.NewFlagSet("emucast", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		nodes    = fs.Int("nodes", 100, "number of protocol nodes")
		messages = fs.Int("messages", 400, "multicast messages per run")
		seed     = fs.Int64("seed", 1, "random seed")
		scale    = fs.Int("scale", 1, "topology scale-down factor (1 = paper-size)")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned text")
	)
	fs.Usage = func() {
		fmt.Fprintf(errOut,
			"usage: emucast [flags] {t1|fig4|fig5a|fig5b|fig5c|fig6|s1|s2|a1|a2|map|all}\n"+
				"       emucast scenario [flags] {-f <file.json> | <builtin>}\n"+
				"       emucast sweep [flags] [-f <sweep.json>]\n"+
				"       emucast live [flags] {-spec <file.json> | <builtin>}\n"+
				"       emucast chaos [flags] {-spec <file.json> | <builtin>}\n"+
				"       emucast bench [flags]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one experiment name")
	}

	opts := experiment.Options{
		Nodes:         *nodes,
		Messages:      *messages,
		Seed:          *seed,
		TopologyScale: *scale,
	}

	var figs []*experiment.Figure
	switch strings.ToLower(fs.Arg(0)) {
	case "t1":
		figs = append(figs, experiment.TopologyStats(opts))
	case "fig4":
		figs = append(figs, experiment.EmergentStructure(opts))
	case "fig5a":
		figs = append(figs, experiment.TradeoffCurves(opts))
	case "fig5b":
		figs = append(figs, experiment.Reliability(opts))
	case "fig5c":
		figs = append(figs, experiment.HybridCurves(opts))
	case "fig6":
		a, b, c := experiment.NoiseSweep(opts)
		figs = append(figs, a, b, c)
	case "s1":
		figs = append(figs, experiment.RunStats(opts))
	case "s2":
		figs = append(figs, experiment.Scale200(opts))
	case "a1":
		figs = append(figs, experiment.ApproximateRanking(opts))
	case "a2":
		figs = append(figs, experiment.Churn(opts))
	case "map":
		// Raw per-connection loads with coordinates: the data behind
		// the Fig. 4 map plots, always CSV.
		fmt.Fprint(out, experiment.StructureMap(opts))
		return nil
	case "all":
		figs = experiment.All(opts)
	default:
		fs.Usage()
		return fmt.Errorf("unknown experiment %q", fs.Arg(0))
	}

	for _, f := range figs {
		if *csv {
			fmt.Fprint(out, f.CSV())
		} else {
			fmt.Fprintln(out, f.String())
		}
	}
	return nil
}
