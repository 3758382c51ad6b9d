package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// childLimit keeps every child, and so every run, well inside the time a
// run is allowed.
const childLimit = 120 * time.Second

// minIterations is how many times a run sets up and times its workload at
// the least; each metric is the median over them.
const minIterations = 3

// spawn plays one iteration of a workload in a fresh child process of this
// binary: in-process back-to-back runs inherit each other's heap, which
// alone moved wall-clock numbers by a fifth.
func spawn(workload string, seed int64, mode string, quick bool, tracePath string) (*iteration, error) {
	exe := childExe
	if exe == "" {
		var err error
		if exe, err = os.Executable(); err != nil {
			return nil, err
		}
	}
	args := []string{"-run", workload, "-seed", strconv.FormatInt(seed, 10), "-mode", mode}
	if quick {
		args = append(args, "-quick")
	}
	if tracePath != "" {
		args = append(args, "-tracefile", tracePath)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childLimit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // starts the child and waits until it has ended
	if err != nil {
		return nil, fmt.Errorf("%s (%s): %w", workload, mode, err)
	}
	var it iteration
	if err := json.Unmarshal(bytes.TrimSpace(out), &it); err != nil {
		return nil, fmt.Errorf("%s (%s): reading child result: %w", workload, mode, err)
	}
	return &it, nil
}

// childExe is the binary spawn starts; empty means this process's own. Only
// the package's test sets it, because a test binary is not the benchmark.
var childExe string

// verdict is what the output checks found over a set of iterations.
type verdict struct {
	attempted, failed int64
	failures          []string
}

// check folds the iterations' own output checks and adds the one only
// repetition can make: a simulator workload repeats exactly at one seed.
func check(its []*iteration) verdict {
	var v verdict
	for i, it := range its {
		v.attempted += it.Attempted
		v.failed += it.Failed
		for _, f := range it.Failures {
			v.failures = append(v.failures, fmt.Sprintf("%s #%d: %s", it.Workload, i+1, f))
		}
		if it.Seed == its[0].Seed && it.Fingerprint != its[0].Fingerprint {
			v.failures = append(v.failures, fmt.Sprintf("%s #%d: not deterministic at seed %d:\n  %s\n  %s",
				it.Workload, i+1, it.Seed, its[0].Fingerprint, it.Fingerprint))
		}
	}
	return v
}

// endToEnd summarises every end-to-end metric over the iterations.
func endToEnd(m *manifest, its []*iteration) (map[string]summary, error) {
	out := make(map[string]summary, len(m.EndToEnd))
	for _, mt := range m.EndToEnd {
		xs := make([]float64, 0, len(its))
		for _, it := range its {
			v, ok := it.Metrics[mt.Name]
			if !ok {
				return nil, fmt.Errorf("%s did not report %s", it.Workload, mt.Name)
			}
			xs = append(xs, v)
		}
		out[mt.Name] = summarize(xs)
	}
	return out, nil
}

// ledger assembles every per-layer metric of the manifest for one workload.
// A layer a workload does not use did no work: it reports 0.
func ledger(m *manifest, workload string, seed int64, quick bool, micros map[string]float64) (map[string]float64, verdict, error) {
	all, v, err := gather(m, workload, seed, quick, micros)
	if err != nil {
		return nil, v, err
	}
	out := make(map[string]float64, len(m.PerLayer))
	for _, mt := range m.PerLayer {
		out[mt.Name] = all[mt.Name]
	}
	return out, v, nil
}

// gather runs the extra children the per-layer metrics need — one under a
// CPU profile, one on the traced stack and, on the simulator, one with the
// obs plane attached — and returns everything they measured by name, the
// isolated drivers' figures included.
func gather(m *manifest, workload string, seed int64, quick bool, micros map[string]float64) (map[string]float64, verdict, error) {
	tracePath, err := filepath.Abs(filepath.Join(m.outDir(), workload+".trace.json"))
	if err != nil {
		return nil, verdict{}, err
	}
	prof, err := spawn(workload, seed, modeProfile, quick, "")
	if err != nil {
		return nil, verdict{}, err
	}
	traced, err := spawn(workload, seed, modeTraced, quick, tracePath)
	if err != nil {
		return nil, verdict{}, err
	}
	v := check([]*iteration{prof})
	v.failures = append(v.failures, traced.Failures...)

	all := make(map[string]float64, len(m.PerLayer))
	for name, x := range prof.Metrics {
		all[name] = x
	}
	all["emunet.events_per_s"] = ratio(prof.Metrics["emunet.events"], prof.WallS)
	// Overheads are ratios of CPU per delivery: an open loop's wall time is
	// set by its schedule, whatever the run costs.
	const cpu = "cpu_us_per_delivery"
	onSim := workloadDefs[workload].sim != nil
	if onSim {
		observed, err := spawn(workload, seed, modeObs, quick, "")
		if err != nil {
			return nil, verdict{}, err
		}
		all["obs.attach_overhead_share"] = ratio(observed.Metrics[cpu]-prof.Metrics[cpu], prof.Metrics[cpu])
	}

	// Fidelity: the self-assembled stack must do the same work per message
	// as the product, or its spans describe some other system.
	work := "neem.frames_per_msg"
	if onSim {
		work = "emunet.events_per_msg"
	}
	fidelity := ratio(traced.Metrics[work], prof.Metrics[work])
	all["bench.trace_fidelity"] = fidelity
	all["bench.trace_overhead"] = ratio(traced.Metrics[cpu], prof.Metrics[cpu])
	if fidelity < 0.9 || fidelity > 1.1 {
		v.failures = append(v.failures, fmt.Sprintf("%s: traced stack's %s is %.3f of the untraced run's: span numbers invalid, not reported", workload, work, fidelity))
	} else {
		msgs := float64(traced.Messages)
		for name, t := range traced.Spans {
			all[name+".count_per_msg"] = ratio(float64(t.Count), msgs)
			all[name+".self_us_per_msg"] = ratio(float64(t.SelfNs)/1e3, msgs)
		}
	}
	for name, x := range micros {
		all[name] = x
	}
	return all, v, nil
}

// runContract is the driver's entry: one workload, one JSON object on the
// last line of standard output.
func runContract(m *manifest, o options) error {
	if !m.hasWorkload(o.workload) {
		return fmt.Errorf("workload %q is not in BENCHMARK.json", o.workload)
	}
	seconds := o.seconds
	if seconds <= 0 {
		seconds = float64(m.RunSeconds)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}

	var v verdict
	if o.trace == 0 {
		var its []*iteration
		for timed := 0.0; len(its) < minIterations || timed < seconds; {
			it, err := spawn(o.workload, o.seed, modePlain, o.quick, "")
			if err != nil {
				return err
			}
			its = append(its, it)
			timed += it.WallS
		}
		v = check(its)
		sums, err := endToEnd(m, its)
		if err != nil {
			return err
		}
		for _, mt := range m.EndToEnd {
			result.Metrics[mt.Name] = value{Value: sums[mt.Name].Median, Unit: mt.Unit}
			fmt.Printf("%-28s %14.6g %-6s q1 %.6g q3 %.6g n %d\n", mt.Name, sums[mt.Name].Median, mt.Unit, sums[mt.Name].Q1, sums[mt.Name].Q3, sums[mt.Name].N)
		}
	} else {
		micros, err := runMicros()
		if err != nil {
			return err
		}
		layers, lv, err := ledger(m, o.workload, o.seed, o.quick, micros)
		if err != nil {
			return err
		}
		v = lv
		for _, mt := range m.PerLayer {
			result.Metrics[mt.Name] = value{Value: layers[mt.Name], Unit: mt.Unit}
			fmt.Printf("%-40s %14.6g %s\n", mt.Name, layers[mt.Name], mt.Unit)
		}
	}
	for _, f := range v.failures {
		fmt.Println("check failed:", f)
	}
	result.Correct = len(v.failures) == 0
	result.Attempted, result.Failed = max(v.attempted, 1), v.failed
	return json.NewEncoder(os.Stdout).Encode(result)
}
