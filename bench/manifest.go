package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// manifest is BENCHMARK.json: the one place metric names, units,
// directions and bounds are written down. The program attaches units and
// judges regressions from it, so a metric cannot be printed under a unit
// the manifest does not declare.
type manifest struct {
	RunSeconds int        `json:"run_seconds"`
	Workloads  []workload `json:"workloads"`
	EndToEnd   []metric   `json:"end_to_end"`
	PerLayer   []metric   `json:"per_layer"`

	root string // directory holding BENCHMARK.json
}

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadManifest finds BENCHMARK.json in the working directory or its parent
// (the program is started from the repository root by bench/run.sh and
// from bench/ by `go run -C bench .`).
func loadManifest() (*manifest, error) {
	for _, dir := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var m manifest
		if err := json.Unmarshal(b, &m); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		m.root = dir
		return &m, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..; start the benchmark from the repository root or from bench/")
}

// outDir is where results and traces are written: bench/out under the
// repository root, ignored by git.
func (m *manifest) outDir() string { return filepath.Join(m.root, "bench", "out") }

func (m *manifest) hasWorkload(name string) bool {
	for _, w := range m.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// lowerIsBetter reports the metric's direction.
func (mt *metric) lowerIsBetter() bool { return mt.Better == "lower" }
