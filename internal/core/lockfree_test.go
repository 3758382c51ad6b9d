package core

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestStepMachineImportsNoSync keeps the protocol core a plain single-owner
// step machine: no product file of the node or of a layer under it may
// import sync or sync/atomic. Serialisation belongs to the host (nothing in
// the simulator, one mutex in emcast.Peer); a lock reappearing here would
// be paid on every one of the simulator's events.
func TestStepMachineImportsNoSync(t *testing.T) {
	for _, pkg := range []string{"core", "lazy", "gossip", "membership", "strategy", "monitor", "ranking"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("package %s: no files found (%v)", pkg, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" || path == "sync/atomic" {
					t.Errorf("%s imports %s: the step machine takes no lock, its host serialises it", file, path)
				}
			}
		}
	}
}
