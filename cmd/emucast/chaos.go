package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"emcast/internal/scenario"
)

// runChaos implements the `emucast chaos` subcommand: `emucast live` on a
// spec that schedules fault-* events, plus a recovery verdict on stderr.
// It exits non-zero unless the fleet delivered atomically in the first
// phase (healthy before the faults) and in the last (recovered after the
// clear), and the goroutine count settles back once the fleet is closed.
func runChaos(args []string, out, errOut io.Writer) error {
	c, err := parseLive("chaos", "Plays a scenario Spec with fault-* events on real TCP peers, like\n"+
		"`emucast live`, and fails unless the fleet recovers: atomic delivery in\n"+
		"the first and last phases, no goroutine left behind.\n", args, errOut)
	if err != nil {
		return err
	}
	if !c.spec.HasFaults() {
		return fmt.Errorf("chaos: spec %q schedules no fault-* events", c.spec.Name)
	}
	g0 := runtime.NumGoroutine()
	rep, err := c.play(out, errOut)
	if err != nil {
		return err
	}
	g1 := runtime.NumGoroutine()
	for deadline := time.Now().Add(10 * time.Second); g1 > g0 && time.Now().Before(deadline); g1 = runtime.NumGoroutine() {
		time.Sleep(100 * time.Millisecond)
	}
	err = chaosVerdict(rep, g0, g1)
	verdict := map[bool]string{true: "recovered", false: "FAILED"}[err == nil]
	fmt.Fprintf(errOut, "chaos: %s; goroutines %d before the run, %d after\n", verdict, g0, g1)
	return err
}

// chaosVerdict judges a chaos run from its Report (a validated Spec has
// at least one phase) and the goroutine counts before the run and after
// it settled.
func chaosVerdict(rep *scenario.Report, g0, g1 int) error {
	first, last := rep.Phases[0], rep.Phases[len(rep.Phases)-1]
	switch {
	case first.Metrics.AtomicRate < 1:
		return fmt.Errorf("chaos: first phase %q atomic rate %.3f < 1: fleet unhealthy before the faults", first.Name, first.Metrics.AtomicRate)
	case last.Metrics.AtomicRate < 1:
		return fmt.Errorf("chaos: last phase %q atomic rate %.3f < 1: fleet did not recover", last.Name, last.Metrics.AtomicRate)
	case g1 > g0:
		return fmt.Errorf("chaos: %d goroutines leaked (%d before the run, %d after)", g1-g0, g0, g1)
	}
	return nil
}
