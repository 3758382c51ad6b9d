package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// results is bench/out/results.json: what one `bench` invocation measured,
// and what `bench -compare` reads.
type results struct {
	Seed      int64                      `json:"seed"`
	Reps      int                        `json:"reps"`
	Quick     bool                       `json:"quick,omitempty"`
	Go        string                     `json:"go"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Micro     map[string]float64         `json:"micro,omitempty"`
}

type workloadResult struct {
	EndToEnd     map[string]summary `json:"end_to_end"`
	OpsAttempted int64              `json:"ops_attempted"`
	OpsFailed    int64              `json:"ops_failed"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
}

// runSuite runs every workload of the manifest for -reps repetitions, each
// in a fresh process and interleaved round-robin so a noisy minute is
// spread over all of them, checks outputs, prints every metric and writes
// results.json.
func runSuite(m *manifest, o options) error {
	reps := o.reps
	if !o.quick {
		reps = max(reps, minIterations)
	}
	its := make(map[string][]*iteration, len(m.Workloads))
	for rep := 0; rep < reps; rep++ {
		for _, w := range m.Workloads {
			it, err := spawn(w.Name, o.seed, modePlain, o.quick, "")
			if err != nil {
				return err
			}
			its[w.Name] = append(its[w.Name], it)
			fmt.Fprintf(os.Stderr, "rep %d/%d %-20s %.2fs\n", rep+1, reps, w.Name, it.WallS)
		}
	}

	res := results{Seed: o.seed, Reps: reps, Quick: o.quick, Go: runtime.Version(), Workloads: map[string]*workloadResult{}}
	if o.micro || o.trace != 0 {
		micros, err := runMicros()
		if err != nil {
			return err
		}
		res.Micro = micros
	}
	var failures []string
	for _, w := range m.Workloads {
		v := check(its[w.Name])
		sums, err := endToEnd(m, its[w.Name])
		if err != nil {
			return err
		}
		wr := &workloadResult{EndToEnd: sums, OpsAttempted: v.attempted, OpsFailed: v.failed}
		res.Workloads[w.Name] = wr
		fmt.Printf("\n%s — ops_attempted %d, ops_failed %d\n", w.Name, v.attempted, v.failed)
		fmt.Printf("  %-26s %14s %14s %14s %3s  %-6s %7s %6s  %s\n", "metric", "median", "q1", "q3", "n", "unit", "spread", "bound", "")
		for _, mt := range m.EndToEnd {
			s := sums[mt.Name]
			// A spread wider than the bound cannot resolve a change of
			// the bound's size: the row is unresolved, never ok.
			status := "ok"
			if s.spread() > mt.Bound {
				status = "unresolved"
			}
			fmt.Printf("  %-26s %14.6g %14.6g %14.6g %3d  %-6s %6.2f%% %5.2f%%  %s\n",
				mt.Name, s.Median, s.Q1, s.Q3, s.N, mt.Unit, 100*s.spread(), 100*mt.Bound, status)
		}
		if o.trace != 0 {
			layers, lv, err := ledger(m, w.Name, o.seed, o.quick, res.Micro)
			if err != nil {
				return err
			}
			wr.PerLayer = layers
			v.failures = append(v.failures, lv.failures...)
			printLayers(m, layers)
		}
		failures = append(failures, v.failures...)
	}
	if o.trace == 0 && res.Micro != nil {
		fmt.Println("\nisolated layer drivers")
		printLayers(m, res.Micro)
	}

	if err := os.MkdirAll(m.outDir(), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(m.outDir(), "results.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	for _, f := range failures {
		fmt.Println("check failed:", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d output checks failed", len(failures))
	}
	return nil
}

// printLayers prints, in the manifest's order, the per-layer metrics that
// values holds.
func printLayers(m *manifest, values map[string]float64) {
	for _, mt := range m.PerLayer {
		if v, ok := values[mt.Name]; ok {
			fmt.Printf("  %-40s %14.6g %s\n", mt.Name, v, mt.Unit)
		}
	}
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// results files: both medians, b's ratio to a, the bound and a verdict.
// It fails on any row that got worse by more than its bound, and on a
// larger failed share.
func compareFiles(m *manifest, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		if b.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Printf("a = %s (seed %d, %d reps)   b = %s (seed %d, %d reps)\n", pathA, a.Seed, a.Reps, pathB, b.Seed, b.Reps)
	fmt.Printf("%-20s %-26s %14s %14s %10s %7s  %s\n", "workload", "metric", "a median", "b median", "b / a", "bound", "verdict")
	var worse []string
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		for _, mt := range m.EndToEnd {
			sa, oka := wa.EndToEnd[mt.Name]
			sb, okb := wb.EndToEnd[mt.Name]
			if !oka || !okb {
				continue
			}
			v := judge(&mt, sa, sb)
			fmt.Printf("%-20s %-26s %14.6g %14.6g %9.4fx %6.2f%%  %s\n",
				name, mt.Name, sa.Median, sb.Median, ratio(sb.Median, sa.Median), 100*mt.Bound, v)
			if v == "worse" {
				worse = append(worse, name+" "+mt.Name)
			}
		}
		fa, fb := ratio(float64(wa.OpsFailed), float64(wa.OpsAttempted)), ratio(float64(wb.OpsFailed), float64(wb.OpsAttempted))
		fmt.Printf("%-20s %-26s %14.6g %14.6g\n", name, "ops_failed / ops_attempted", fa, fb)
		if fb > fa {
			worse = append(worse, name+" failed share")
		}
	}
	if len(worse) > 0 {
		return fmt.Errorf("worse: %v", worse)
	}
	return nil
}

// judge compares b's median with a's. A spread wider than the bound on
// either side cannot resolve a change of the bound's size.
func judge(mt *metric, a, b summary) string {
	if max(a.spread(), b.spread()) > mt.Bound {
		return "unresolved"
	}
	worsening := ratio(b.Median-a.Median, a.Median)
	if !mt.lowerIsBetter() {
		worsening = -worsening
	}
	switch {
	case worsening > mt.Bound:
		return "worse"
	case worsening < -mt.Bound:
		return "better"
	}
	return "same"
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Workloads) == 0 {
		return nil, errors.New(path + ": no workloads")
	}
	return &r, nil
}
