package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"emcast/internal/obs"
	"emcast/internal/scenario"
)

// Run executes every cell of the sweep on a worker pool and aggregates
// the reports into a Matrix. Each cell is an independent deterministic
// scenario run (own topology, emulator, protocol RNGs), so the worker
// count affects wall-clock only: results land in cell order and the
// returned Matrix is byte-identical for identical (spec, seeds) at any
// parallelism. A failing cell aborts the sweep: in-flight cells finish,
// queued cells are skipped, and the failure with the lowest grid index
// among those executed is reported.
func (s *Spec) Run() (*Matrix, error) {
	for i := range s.Scenarios {
		if s.Scenarios[i].resolved == nil {
			return nil, fmt.Errorf("sweep: spec not resolved (call Resolve or Parse first)")
		}
	}
	cells := s.cells()
	reports := make([]*scenario.Report, len(cells))
	workers := poolSize(s.Workers, len(cells))

	// Worker-pool instruments (all nil-safe when s.Obs is nil). The busy
	// gauge against the worker count is pool utilization; the histogram
	// spots straggler cells.
	started := s.Obs.Counter("sweep_cells_started_total", "sweep cells started")
	finished := s.Obs.Counter("sweep_cells_done_total", "sweep cells completed successfully")
	cellFailed := s.Obs.Counter("sweep_cells_failed_total", "sweep cells that returned an error")
	busy := s.Obs.Gauge("sweep_workers_busy", "workers currently running a cell")
	s.Obs.Gauge("sweep_workers_total", "size of the sweep worker pool").Set(int64(workers))
	cellSeconds := s.Obs.Histogram("sweep_cell_seconds", "per-cell wall-clock run time", obs.DefaultDurationBuckets)

	var (
		mu   sync.Mutex
		done int
	)
	err := pool(len(cells), workers, func(i int) error {
		c := &cells[i]
		started.Inc()
		busy.Add(1)
		begin := time.Now()
		spec := c.spec
		spec.Obs = s.Obs
		rep, eng, err := runCell(spec)
		var fps []obs.Footprint
		if err == nil && (s.Obs != nil || s.EventLog != nil) {
			fps = eng.Runner().Footprints()
			obs.PublishFootprints(s.Obs, "sim", fps)
		}
		dur := time.Since(begin)
		busy.Add(-1)
		cellSeconds.Observe(dur.Seconds())
		cd := CellDone{
			Total:    len(cells),
			Scenario: c.scenario, Strategy: c.strategy,
			Nodes: c.nodes, Seed: c.seed,
			Duration:   dur,
			Failed:     err != nil,
			Footprints: fps,
		}
		if err != nil {
			cellFailed.Inc()
			err = fmt.Errorf("sweep: cell %s/%s seed %d: %v", c.scenario, c.strategy, c.seed, err)
		} else {
			finished.Inc()
			reports[i] = rep
			cd.Events, cd.Trees = eng.Runner().Events(), eng.TreeReport()
		}
		mu.Lock()
		defer mu.Unlock()
		done++
		cd.Done = done
		cellEvent := map[string]interface{}{
			"done": cd.Done, "total": cd.Total,
			"scenario": cd.Scenario, "strategy": cd.Strategy,
			"nodes": cd.Nodes, "seed": cd.Seed,
			"duration_ms": float64(cd.Duration) / float64(time.Millisecond),
			"sim_events":  cd.Events,
			"failed":      cd.Failed,
		}
		if cd.Footprints != nil {
			cellEvent["footprint_bytes"] = obs.FootprintBytesMap(cd.Footprints)
		}
		s.EventLog.Event("cell_complete", cellEvent)
		if s.OnCell != nil {
			s.OnCell(cd)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return s.aggregate(cells, reports), nil
}

// Play runs specs on the sweep's worker pool (workers 0 = GOMAXPROCS)
// and hands each finished run's report and engine to keep, from the
// worker goroutine, while the engine's simulation is still alive: what a
// Report does not carry (the oracle's payload split, link loads) is read
// there. keep is called concurrently for distinct indices. A failing run
// stops the pool as it stops a sweep.
func Play(specs []scenario.Spec, workers int, keep func(i int, rep *scenario.Report, eng *scenario.Engine)) error {
	return pool(len(specs), poolSize(workers, len(specs)), func(i int) error {
		rep, eng, err := runCell(specs[i])
		if err != nil {
			return fmt.Errorf("sweep: run %d (%s, seed %d): %v", i, specs[i].Strategy, specs[i].Seed, err)
		}
		keep(i, rep, eng)
		return nil
	})
}

// poolSize caps the worker count (0 = GOMAXPROCS) at the job count.
func poolSize(workers, jobs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, jobs)
}

// pool runs job(i) for every i in [0, n) on workers goroutines. A failing
// job stops the pool: in-flight jobs finish, queued ones are skipped, and
// the error with the lowest index among the jobs run is returned.
func pool(n, workers int, job func(i int) error) error {
	errs := make([]error, n)
	var (
		wg     sync.WaitGroup
		failed atomic.Bool
	)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if failed.Load() {
					continue // drain: a job already failed
				}
				if errs[i] = job(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		if failed.Load() {
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runCell plays one spec to completion and returns its report with the
// engine, whose simulation stays readable until the caller drops it.
func runCell(spec scenario.Spec) (*scenario.Report, *scenario.Engine, error) {
	eng, err := scenario.New(spec)
	if err != nil {
		return nil, nil, err
	}
	rep, err := eng.Run()
	if err != nil {
		return nil, nil, err
	}
	return rep, eng, nil
}

// cellMetrics flattens a report's metrics into the named values the
// matrix aggregates. Conditional metrics appear only when the run can
// measure them: joiner_coverage needs joiners; recovery metrics need
// disrupted phases. Recovery aggregates per phase, not from the
// worst-phase overall value — a partition-heal scenario has one phase
// that legitimately never recovers (the partition) and one that does
// (the heal), and the comparison wants both facts: recovered is the
// fraction of disrupted phases that returned to full delivery, and
// recovery_ms the mean time over those that did.
func cellMetrics(rep *scenario.Report) map[string]float64 {
	o := rep.Overall
	m := map[string]float64{
		"delivery_rate":   o.DeliveryRate,
		"atomic_rate":     o.AtomicRate,
		"mean_latency_ms": o.MeanLatencyMS,
		"p95_latency_ms":  o.P95LatencyMS,
		"payload_per_msg": o.PayloadPerMsg,
		"top5_link_share": o.Top5LinkShare,
		"control_frames":  float64(o.ControlFrames),
		"duplicates":      float64(o.Duplicates),
	}
	if rep.Joiners > 0 {
		m["joiner_coverage"] = o.JoinerCoverage
	}
	disrupted, recovered := 0, 0
	var recSum float64
	for _, p := range rep.Phases {
		switch {
		case p.Metrics.RecoveryMS > 0:
			disrupted++
			recovered++
			recSum += p.Metrics.RecoveryMS
		case p.Metrics.RecoveryMS < 0:
			disrupted++
		}
	}
	if recovered > 0 {
		m["recovery_ms"] = recSum / float64(recovered)
	}
	if disrupted > 0 {
		m["recovered"] = float64(recovered) / float64(disrupted)
	}
	return m
}
