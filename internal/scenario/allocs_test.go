//go:build !race

// The race detector allocates on its own account, so this pin runs only
// without it.

package scenario

import (
	"runtime"
	"testing"
)

// TestAllocsPerDelivery pins the simulator's steady-state allocation
// count: a warm 100-node run (warmSpec) must not allocate per delivery.
// The first phase warms every node's tables and scratch buffers up; the
// count is taken over the second, as heap allocations (runtime.MemStats.Mallocs)
// per delivery. The third phase keeps the final boundary and the drain
// out of the window. Timers armed as data, pending requests in a slab and
// samples drawn into reused buffers put lazy push at 0.117 and eager push
// at 0.098, nearly all of it per message (its payload, its trace record,
// its arrival timer), not per delivery; a closure or a heap struct per
// timer, per request or per gossip round puts them at 9.3 and 1.6.
func TestAllocsPerDelivery(t *testing.T) {
	for _, c := range []struct {
		strategy string
		max      float64
	}{
		{"lazy", 0.13},
		{"eager", 0.11},
	} {
		t.Run(c.strategy, func(t *testing.T) {
			eng, err := New(warmSpec(c.strategy))
			if err != nil {
				t.Fatal(err)
			}
			var ms runtime.MemStats
			var mallocs uint64
			var delivered int
			eng.runner.Warmup()
			eng.player.Play(func(i int, _ *Phase) {
				switch i {
				case 0:
					delivered = eng.runner.Checkpoint().TotalDelivered
					runtime.ReadMemStats(&ms)
					mallocs = ms.Mallocs
				case 1:
					runtime.ReadMemStats(&ms)
					mallocs = ms.Mallocs - mallocs
					delivered = eng.runner.Checkpoint().TotalDelivered - delivered
				}
			})
			if delivered < 10000 {
				t.Fatalf("%d deliveries in the measured phase, want a loaded run", delivered)
			}
			per := float64(mallocs) / float64(delivered)
			t.Logf("%s: %d mallocs / %d deliveries = %.3f per delivery", c.strategy, mallocs, delivered, per)
			if per > c.max {
				t.Errorf("%s: %.3f allocations per delivery, want at most %.2f", c.strategy, per, c.max)
			}
		})
	}
}
