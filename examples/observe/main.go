// Observability plane demo: run a small sweep with the internal/obs
// registry attached, serve live metrics over HTTP while it runs, and
// scrape /metrics mid-run from inside the process — the same text a
// Prometheus server (or `curl`) would see against a real run started
// with `emucast sweep -obs-addr :9090`.
//
// The demo prints three things:
//  1. a mid-run /metrics excerpt (counters moving while cells execute),
//  2. the structured JSONL run events the sweep emitted,
//  3. a final snapshot with the run's headline figures (events/sec,
//     deliveries, mean cell time).
//
// The registry never feeds the simulation: the sweep's result matrix is
// byte-identical with or without it (the repo's equivalence tests pin
// exactly that).
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"emcast/internal/obs"
	"emcast/internal/scenario"
	"emcast/internal/sweep"
)

func main() {
	// A small but real grid: 2 strategies × 1 scenario × 2 seeds.
	sc, err := scenario.ParseString(`{
		"name": "observe-demo",
		"nodes": 60,
		"topology_scale": 8,
		"drain": "5s",
		"phases": [
			{"name": "steady", "duration": "20s",
			 "traffic": [{"kind": "poisson", "rate": 4, "senders": "uniform"}]},
			{"name": "crash", "duration": "20s",
			 "traffic": [{"kind": "poisson", "rate": 4, "senders": "uniform"}],
			 "churn": [{"kind": "crash-wave", "count": 6, "at": "2s"}]}
		]
	}`)
	if err != nil {
		log.Fatal(err)
	}
	spec := sweep.Spec{
		Name:       "observe",
		Strategies: []string{"flat", "ttl"},
		Scenarios:  []sweep.ScenarioRef{{Spec: &sc}},
		Replicates: 2,
		Workers:    2,
	}
	if err := spec.Resolve(""); err != nil {
		log.Fatal(err)
	}

	// The observability plane: one registry shared by every cell, an HTTP
	// endpoint serving it, and a JSONL event log capturing run structure.
	reg := obs.NewRegistry()
	srv, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	var events bytes.Buffer
	spec.Obs = reg
	spec.EventLog = obs.NewEventLog(&events, reg)
	fmt.Printf("serving live metrics on %s/ (also /debug/vars, /debug/pprof)\n\n", srv.URL())

	// Scrape /metrics over real HTTP while the sweep runs.
	scraped := make(chan string, 1)
	cells := make(chan struct{}, 16)
	spec.OnCell = func(c sweep.CellDone) {
		fmt.Printf("cell %d/%d %s/%s seed %d: %d events in %v (%.0f events/sec)\n",
			c.Done, c.Total, c.Scenario, c.Strategy, c.Seed,
			c.Events, c.Duration.Round(time.Millisecond),
			float64(c.Events)/c.Duration.Seconds())
		select {
		case cells <- struct{}{}:
		default:
		}
	}
	go func() {
		<-cells // at least one cell done: counters are moving
		resp, err := http.Get(srv.URL() + "/metrics")
		if err != nil {
			scraped <- "scrape failed: " + err.Error()
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		scraped <- string(body)
	}()

	start := time.Now()
	if _, err := spec.Run(); err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)

	fmt.Println("\n--- mid-run /metrics excerpt ---")
	for _, line := range strings.Split(<-scraped, "\n") {
		if strings.HasPrefix(line, "sim_") || strings.HasPrefix(line, "sweep_") ||
			strings.HasPrefix(line, "go_goroutines") {
			fmt.Println(line)
		}
	}

	fmt.Println("\n--- run events (JSONL) ---")
	for _, line := range strings.SplitAfter(events.String(), "\n") {
		// Trim each record to its head: the full records carry a complete
		// metrics snapshot, too wide for a demo transcript.
		if i := strings.Index(line, `,"metrics"`); i > 0 {
			line = line[:i] + ", ...}\n"
		}
		fmt.Print(line)
	}

	fmt.Println("\n--- final snapshot ---")
	final := obs.Scalars(reg.Snapshot())
	simEvents := final["sim_events_total"]
	fmt.Printf("emulator events:   %.0f (%.0f events/sec over %v wall)\n",
		simEvents, simEvents/wall.Seconds(), wall.Round(time.Millisecond))
	fmt.Printf("frames delivered:  %.0f (%.0f lost)\n",
		final["sim_frames_delivered_total"], final["sim_frames_lost_total"])
	fmt.Printf("deliveries:        %.0f from %.0f multicasts\n",
		final["sim_deliveries_total"], final["sim_multicasts_total"])
	fmt.Printf("cells:             %.0f done, mean %.2fs each\n",
		final["sweep_cells_done_total"],
		final["sweep_cell_seconds_sum"]/final["sweep_cell_seconds_count"])
}
