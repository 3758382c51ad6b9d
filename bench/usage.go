package main

import (
	"encoding/binary"
	"runtime"
	"sync"
	"syscall"
	"time"

	"emcast/internal/stats"
)

// usage is a snapshot of what the process has consumed so far; two of them
// bracket a timed region.
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system, all threads (getrusage)
	mallocs uint64
	bytes   uint64
	gcs     uint32
	gcPause uint64
	gcShare float64
}

func takeUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		gcPause: ms.PauseTotalNs,
		gcShare: ms.GCCPUFraction,
	}
}

// used is the consumption of one timed region.
type used struct {
	wall, cpu, gcPause time.Duration
	mallocs, bytes     uint64
	gcs                uint32
	gcShare            float64
}

func (u usage) since(before usage) used {
	return used{
		wall:    u.at.Sub(before.at),
		cpu:     u.cpu - before.cpu,
		gcPause: time.Duration(u.gcPause - before.gcPause),
		mallocs: u.mallocs - before.mallocs,
		bytes:   u.bytes - before.bytes,
		gcs:     u.gcs - before.gcs,
		gcShare: u.gcShare,
	}
}

// fill reports the region's cost per delivery — the unit of useful work on
// both substrates — in reference time, and the runtime's own share of it.
func (u used) fill(it *iteration, deliveries float64, host hostSpeed) {
	mt := it.Metrics
	mt["deliveries_per_s"] = ratio(deliveries, host.reference(u.wall).Seconds())
	mt["cpu_us_per_delivery"] = ratio(float64(host.reference(u.cpu))/float64(time.Microsecond), deliveries)
	mt["allocs_per_delivery"] = ratio(float64(u.mallocs), deliveries)
	mt["alloc_bytes_per_delivery"] = ratio(float64(u.bytes), deliveries)
	mt["runtime.gc_cycles"] = float64(u.gcs)
	mt["runtime.gc_pause_total_ms"] = float64(u.gcPause) / float64(time.Millisecond)
	mt["runtime.gc_cpu_share"] = u.gcShare
	mt["host.memwalk_ms"] = float64(host)
}

// liveHeapMB is the heap still reachable after a forced collection; callers
// keep the system under test alive across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// sampler polls a gauge every 5 ms from its own goroutine until stopped.
type sampler struct {
	quit   chan struct{}
	done   sync.WaitGroup
	values []float64
}

type sampled struct{ max, p99 float64 }

func startSampler(read func() float64) *sampler {
	s := &sampler{quit: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			s.values = append(s.values, read())
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the polling goroutine, waits for it and summarises.
func (s *sampler) stop() sampled {
	close(s.quit)
	s.done.Wait()
	return sampled{max: stats.Percentile(s.values, 100), p99: stats.Percentile(s.values, 99)}
}

// hostSpeed is how long the host-speed probe took around a timed region, in
// ms; 0 means not probed. The sandbox shares its host: the same code runs up
// to 1.45x slower for minutes at a time, which no amount of repetition
// inside one run averages out. So every duration measured with the host's
// clock is reported in reference time, scaled by nominal over measured probe
// time; durations in virtual time and counts are not. The probe follows the
// simulator and the closed loop closely and the open loops about half as
// well (their bursts also lose cache to neighbours, which the probe does not
// see): over 750 single regions, ten-run spreads of the open loops' CPU and
// latency figures were at worst 0.18-0.22 raw and 0.08-0.15 scaled, and on a
// quiet host scaling costs them 0.01-0.03 of spread. host.memwalk_ms is
// reported beside the metrics; multiply a reference time by it over
// memWalkNominalMS to get the raw one back.
type hostSpeed float64

// memWalkNominalMS is the probe's time on a quiet 2-core sandbox; on another
// machine every reference time is off by one constant factor, which no
// comparison between two commits sees.
const memWalkNominalMS = 190

// factor is what a host-clock duration is multiplied by to give reference
// time: 1 when the region was not probed.
func (h hostSpeed) factor() float64 {
	if h <= 0 {
		return 1
	}
	return memWalkNominalMS / float64(h)
}

func (h hostSpeed) reference(d time.Duration) time.Duration {
	return time.Duration(float64(d) * h.factor())
}

// probeHost brackets a timed region with the probe: call it before the
// region, and the function it returns after.
func probeHost() func() hostSpeed {
	before := memWalkMS()
	return func() hostSpeed {
		after := memWalkMS()
		if before == 0 || after == 0 {
			return 0 // the table could not be mapped: raw time
		}
		return hostSpeed((before + after) / 2)
	}
}

// memWalkMS times the probe: dependent random reads over a table far larger
// than any cache — the access pattern of the simulator's dedup probes, and
// what neighbours on the host slow first.
//
// The table is mapped outside the Go heap, so the probe neither shows in
// the heap figures nor moves the collector's pacing of the region it
// brackets.
func memWalkMS() float64 {
	const size, reads = 64 << 20, 1 << 20
	table, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0 // no probe: reference leaves durations as measured
	}
	defer syscall.Munmap(table) // its only failure is a bad range, which Mmap just gave us
	for i := 0; i < size; i += 4 {
		binary.LittleEndian.PutUint32(table[i:], uint32(i)*2654435761)
	}
	start := time.Now()
	idx := uint32(1)
	for i := 0; i < reads; i++ {
		idx = binary.LittleEndian.Uint32(table[idx&(size-4):])*1664525 + 1013904223 + uint32(i)
	}
	elapsed := time.Since(start)
	if idx == 0 { // keeps the loop's result alive
		return 0
	}
	return float64(elapsed) / float64(time.Millisecond)
}
