package emcast

import (
	"reflect"
	"testing"

	"emcast/internal/core"
	"emcast/internal/emunet"
	"emcast/internal/lazy"
	"emcast/internal/neem"
	"emcast/internal/scenario"
	"emcast/internal/sim"
	"emcast/internal/sweep"
)

// TestConfigSurface pins the number of exported fields of every
// configuration struct. "No new Config field" is an acceptance line of
// most issues; this is what enforces it. A change that adds a knob has to
// raise a number here in the same diff and say which existing caller needs
// it; one that removes a knob lowers it. CI runs this test with -v and so
// prints the counts beside the non-test line counts.
func TestConfigSurface(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  interface{}
		want int
	}{
		{"sim.Config", sim.Config{}, 20},
		{"scenario.Spec", scenario.Spec{}, 20},
		{"sweep.Spec", sweep.Spec{}, 13},
		{"emcast.ClusterConfig", ClusterConfig{}, 11},
		{"emcast.PeerConfig", PeerConfig{}, 18},
		{"neem.Config", neem.Config{}, 14},
		{"emunet.Config", emunet.Config{}, 6},
		{"core.Config", core.Config{}, 7},
		{"lazy.Config", lazy.Config{}, 4},
	} {
		typ, n := reflect.TypeOf(c.cfg), 0
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				n++
			}
		}
		t.Logf("exported fields: %s %d", c.name, n)
		if n != c.want {
			t.Errorf("%s has %d exported fields, want %d", c.name, n, c.want)
		}
	}
}
