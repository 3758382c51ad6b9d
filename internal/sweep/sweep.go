// Package sweep fans the paper's comparative evaluation out of single
// runs: a Spec crosses transmission strategies × scenarios × seed
// replicates (× an optional overlay-size axis) into a grid of cells,
// executes every cell as an independent deterministic scenario run on a
// worker pool, and aggregates the per-cell reports into mean/stddev/min/
// max statistics with per-metric winners — the §6-style comparison
// tables (which strategy delivers, at what latency and bandwidth cost,
// and how fast it recovers from churn and partitions), from one command.
//
// Each cell is one scenario.Engine run with its own topology, emulator
// and RNGs, so cells parallelise freely while staying bit-reproducible:
// the same spec and seeds produce a byte-identical JSON matrix at any
// worker count.
//
// Cells collect through the streaming trace (per-message aggregates
// instead of raw event logs — see internal/trace), which bounds per-cell
// memory and makes 10k-node cells feasible.
package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"emcast/internal/disstrace"
	"emcast/internal/obs"
	"emcast/internal/scenario"
	"emcast/internal/sim"
)

// DefaultStrategies are the five transmission strategies the paper
// compares (§4.1, §6.4).
var DefaultStrategies = []string{"flat", "ttl", "radius", "ranked", "hybrid"}

// Spec describes one sweep: the axes of the comparison matrix.
type Spec struct {
	// Name labels the sweep in reports.
	Name string `json:"name,omitempty"`
	// Strategies to compare (default: flat, ttl, radius, ranked,
	// hybrid — the paper's five).
	Strategies []string `json:"strategies,omitempty"`
	// Scenarios are the workloads: builtin archetype names, scenario
	// spec files, or inline specs. Every scenario must carry a distinct
	// name.
	Scenarios []ScenarioRef `json:"scenarios"`
	// Replicates is the number of seed replicates per cell (default 3).
	// Replicate r runs with seed BaseSeed+r, overriding the scenario's
	// own seed so replicates actually differ.
	Replicates int `json:"replicates,omitempty"`
	// BaseSeed anchors the replicate seeds (default 1; must be positive:
	// scenario seed 0 silently means "default", so a replicate landing
	// on 0 would duplicate the seed-1 replicate and mislabel the cell).
	BaseSeed int64 `json:"base_seed,omitempty"`
	// Nodes is an optional overlay-size axis: each value adds a full
	// strategies × scenarios × replicates slab at that size. Empty keeps
	// every scenario's own size.
	Nodes []int `json:"nodes,omitempty"`
	// TopologyScale, when positive, overrides every scenario's topology
	// scale-down factor.
	TopologyScale int `json:"topology_scale,omitempty"`
	// Workers caps concurrent cell runs (0 = GOMAXPROCS). It affects
	// wall-clock only, never results.
	Workers int `json:"workers,omitempty"`
	// TraceSample, when positive, samples this fraction of each cell's
	// message ids with the dissemination tracer. The matrix is
	// byte-identical with sampling on or off; per-cell tree reports
	// surface through CellDone.Trees, never in the matrix, and the
	// sampled set is deterministic at any worker count (it is a pure
	// function of the cell seed and the id bytes).
	TraceSample float64 `json:"trace_sample,omitempty"`

	// OnCell, when set, is called after each cell completes with progress
	// and per-cell cost (may be called from worker goroutines, serialised
	// by the runner).
	OnCell func(c CellDone) `json:"-"`

	// Obs, when set, is attached to every cell's simulation — counters
	// aggregate across cells by name — and receives the sweep's own
	// worker-pool instruments. EventLog, when set, gets one cell_complete
	// record per finished cell. Runtime wiring only, never serialized; the
	// matrix is byte-identical with or without them.
	Obs      *obs.Registry `json:"-"`
	EventLog *obs.EventLog `json:"-"`
}

// CellDone describes one completed cell for progress callbacks.
type CellDone struct {
	// Done and Total are the finished-cell count and the grid size.
	Done, Total int
	// Scenario, Strategy, Nodes and Seed identify the cell in the grid.
	Scenario string
	Strategy string
	Nodes    int
	Seed     int64
	// Duration is the cell's wall-clock run time and Events the number of
	// emulator events it executed — Events/Duration is the cell's
	// simulator throughput.
	Duration time.Duration
	Events   uint64
	// Failed marks a cell that aborted the sweep.
	Failed bool
	// Trees is the cell's sampled dissemination-tree report when
	// Spec.TraceSample is positive; nil otherwise. It never enters the
	// matrix — the matrix stays byte-identical with sampling on or off.
	Trees *disstrace.TreeReport
	// Footprints is the cell's end-of-run per-subsystem retained-byte
	// accounting, walked when the sweep has an Obs registry or EventLog
	// attached; nil otherwise. Like Trees it never enters the matrix.
	Footprints []obs.Footprint
}

// ScenarioRef names one scenario of the sweep: exactly one of Builtin,
// File or Spec. In JSON a bare string is shorthand for a builtin name.
type ScenarioRef struct {
	// Builtin is a scenario archetype name (see scenario.BuiltinNames).
	Builtin string `json:"builtin,omitempty"`
	// File is a scenario spec JSON file, resolved against the sweep
	// file's directory.
	File string `json:"file,omitempty"`
	// Spec is an inline scenario spec.
	Spec *scenario.Spec `json:"spec,omitempty"`

	resolved *scenario.Spec
}

// UnmarshalJSON accepts either a bare builtin name or the full object.
func (r *ScenarioRef) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		return json.Unmarshal(b, &r.Builtin)
	}
	type raw ScenarioRef // shed methods to avoid recursion
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	var v raw
	if err := dec.Decode(&v); err != nil {
		return err
	}
	*r = ScenarioRef(v)
	return nil
}

// MarshalJSON renders a plain builtin reference back as a bare string.
func (r ScenarioRef) MarshalJSON() ([]byte, error) {
	if r.Builtin != "" && r.File == "" && r.Spec == nil {
		return json.Marshal(r.Builtin)
	}
	type raw ScenarioRef
	return json.Marshal(raw(r))
}

// Parse reads and validates a JSON sweep spec. Unknown fields are
// rejected. Scenario files referenced by the spec are loaded relative to
// baseDir.
func Parse(rd io.Reader, baseDir string) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("sweep: %v", err)
	}
	if err := spec.Resolve(baseDir); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// Resolve applies defaults, loads every scenario reference, and validates
// the whole spec. It must run before Run; Parse calls it. Resolve is
// idempotent: already-loaded scenario references are kept as-is, so
// applying overrides to a parsed spec and resolving again re-validates
// without re-reading files.
func (s *Spec) Resolve(baseDir string) error {
	if len(s.Strategies) == 0 {
		s.Strategies = append([]string(nil), DefaultStrategies...)
	}
	if s.Replicates <= 0 {
		s.Replicates = 3
	}
	if s.BaseSeed == 0 {
		s.BaseSeed = 1
	}
	if s.BaseSeed < 0 {
		return fmt.Errorf("sweep: base_seed %d must be positive", s.BaseSeed)
	}
	if s.TraceSample < 0 || s.TraceSample > 1 {
		return fmt.Errorf("sweep: trace_sample %v outside [0, 1]", s.TraceSample)
	}
	for _, st := range s.Strategies {
		if _, _, err := sim.ParseStrategy(st, 0); err != nil {
			return fmt.Errorf("sweep: %v", err)
		}
	}
	if len(s.Scenarios) == 0 {
		return fmt.Errorf("sweep: no scenarios")
	}
	for _, n := range s.Nodes {
		if n <= 0 {
			return fmt.Errorf("sweep: nodes axis value %d must be positive", n)
		}
	}
	seen := make(map[string]bool)
	for i := range s.Scenarios {
		ref := &s.Scenarios[i]
		if err := ref.resolve(baseDir); err != nil {
			return err
		}
		name := ref.resolved.Name
		if seen[name] {
			return fmt.Errorf("sweep: duplicate scenario name %q", name)
		}
		seen[name] = true
	}
	return nil
}

// resolve loads the referenced scenario spec and normalizes it. Already
// resolved references are left untouched.
func (r *ScenarioRef) resolve(baseDir string) error {
	if r.resolved != nil {
		return nil
	}
	set := 0
	for _, ok := range []bool{r.Builtin != "", r.File != "", r.Spec != nil} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("sweep: scenario ref needs exactly one of builtin, file or spec")
	}
	switch {
	case r.Builtin != "":
		spec, err := scenario.Builtin(r.Builtin)
		if err != nil {
			return fmt.Errorf("sweep: %v", err)
		}
		r.resolved = &spec
	case r.File != "":
		path := r.File
		if !filepath.IsAbs(path) {
			path = filepath.Join(baseDir, path)
		}
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("sweep: %v", err)
		}
		defer f.Close()
		spec, err := scenario.Parse(f)
		if err != nil {
			return fmt.Errorf("sweep: %s: %v", r.File, err)
		}
		if spec.Name == "" {
			spec.Name = strings.TrimSuffix(filepath.Base(r.File), ".json")
		}
		r.resolved = &spec
	default:
		spec := *r.Spec
		if err := spec.Normalize(); err != nil {
			return err
		}
		r.resolved = &spec
	}
	if r.resolved.Name == "" {
		return fmt.Errorf("sweep: inline scenario needs a name")
	}
	return nil
}

// cell is one fully-specified run of the sweep grid.
type cell struct {
	scenario string
	nodes    int
	strategy string
	seed     int64
	rep      int
	spec     scenario.Spec
}

// cells expands the spec into its run grid, in deterministic order:
// scenario-major, then nodes axis, then strategy, then replicate.
func (s *Spec) cells() []cell {
	axis := s.Nodes
	if len(axis) == 0 {
		axis = []int{0} // keep each scenario's own size
	}
	var out []cell
	for i := range s.Scenarios {
		base := s.Scenarios[i].resolved
		for _, n := range axis {
			for _, strat := range s.Strategies {
				for rep := 0; rep < s.Replicates; rep++ {
					sc := *base
					sc.Strategy = strat
					sc.Seed = s.BaseSeed + int64(rep)
					if n > 0 {
						sc.Nodes = n
					}
					if s.TopologyScale > 0 {
						sc.TopologyScale = s.TopologyScale
					}
					if s.TraceSample > 0 {
						sc.TraceSample = s.TraceSample
					}
					out = append(out, cell{
						scenario: base.Name,
						nodes:    sc.Nodes,
						strategy: strat,
						seed:     sc.Seed,
						rep:      rep,
						spec:     sc,
					})
				}
			}
		}
	}
	return out
}
