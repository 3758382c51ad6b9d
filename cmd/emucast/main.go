// Command emucast reproduces the evaluation of "Emergent Structure in
// Unstructured Epidemic Multicast" (DSN 2007) over the simulated network.
// The reproduce subcommand judges the paper's claims — every table and
// figure of §5–§6, written once as data in claims.json — and prints
// REPRODUCTION.md, one table per claim with its verdict; it exits non-zero
// when a claim fails. The map subcommand writes the per-connection loads
// behind Fig. 4's maps as CSV:
//
//	emucast reproduce [-nodes N -messages M -scale S -seed S -csv] [claim-id...]
//	emucast map [-nodes N -messages M -scale S -seed S]
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
	"fmt"
	"io"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "emucast: %v\n", err)
		os.Exit(2)
	}
}

// commands maps each subcommand to its implementation.
var commands = map[string]func(args []string, out, errOut io.Writer) error{
	"reproduce": runReproduce,
	"map":       runMap,
	"scenario":  runScenario,
	"sweep":     runSweep,
	"live":      runLive,
	"chaos":     runChaos,
	"bench":     runBench,
}

// run dispatches args to a subcommand, writing results to out. It is
// separated from main for testability.
func run(args []string, out, errOut io.Writer) error {
	if len(args) > 0 {
		if cmd, ok := commands[args[0]]; ok {
			return cmd(args[1:], out, errOut)
		}
	}
	fmt.Fprintf(errOut,
		"usage: emucast reproduce [flags] [claim-id...]\n"+
			"       emucast map [flags]\n"+
			"       emucast scenario [flags] {-f <file.json> | <builtin>}\n"+
			"       emucast sweep [flags] [-f <sweep.json>]\n"+
			"       emucast live [flags] {-spec <file.json> | <builtin>}\n"+
			"       emucast chaos [flags] {-spec <file.json> | <builtin>}\n"+
			"       emucast bench [flags]\n")
	if len(args) == 0 {
		return fmt.Errorf("expected a subcommand")
	}
	return fmt.Errorf("unknown subcommand %q", args[0])
}
