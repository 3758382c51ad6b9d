package emcast

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
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
// prints the counts beside the non-test line counts. Fields promoted from
// an embedded struct count one by one: embedding moves knobs, it does not
// remove them.
func TestConfigSurface(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  interface{}
		want int
	}{
		{"sim.Config", sim.Config{}, 19},
		{"scenario.Spec", scenario.Spec{}, 19},
		{"sweep.Spec", sweep.Spec{}, 12},
		{"emcast.ClusterConfig", ClusterConfig{}, 11},
		{"emcast.PeerConfig", PeerConfig{}, 18},
		{"neem.Config", neem.Config{}, 13},
		{"emunet.Config", emunet.Config{}, 3},
		{"core.Config", core.Config{}, 5},
		{"lazy.Config", lazy.Config{}, 3},
	} {
		n := exportedFields(reflect.TypeOf(c.cfg))
		t.Logf("exported fields: %s %d", c.name, n)
		if n != c.want {
			t.Errorf("%s has %d exported fields, want %d", c.name, n, c.want)
		}
	}
}

// exportedFields counts the settable exported fields of a struct type: an
// embedded struct counts as the fields it promotes, not as one.
func exportedFields(typ reflect.Type) int {
	n := 0
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); {
		case !f.IsExported():
		case f.Anonymous && f.Type.Kind() == reflect.Struct:
			n += exportedFields(f.Type)
		default:
			n++
		}
	}
	return n
}

// exportedDecl matches a top-level exported func, method or type
// declaration — the line-anchored count ROADMAP tracks as the exported
// surface.
var exportedDecl = regexp.MustCompile(`^(func (\([^)]*\) )?[A-Z]|type [A-Z])`)

// TestExportedSurface pins the number of exported top-level declarations
// in the non-test Go files of the module outside bench/ (its own module),
// testdata/ and dot-directories. Like TestConfigSurface, a change that
// grows the surface has to raise the number in the same diff; one that
// shrinks it lowers it.
func TestExportedSurface(t *testing.T) {
	const want = 615
	n := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(src), "\n") {
			if exportedDecl.MatchString(line) {
				n++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("exported declarations: %d", n)
	if n != want {
		t.Errorf("%d exported top-level declarations, want %d", n, want)
	}
}
