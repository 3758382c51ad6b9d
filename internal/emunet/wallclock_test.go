package emunet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEmulatorReadsNoWallClock keeps the emulator on its virtual clock
// alone: no product file of the package may call time.Now or time.Since.
// A wall-clock read in the event loop would be paid on every event and
// would make its own cost part of what it measures; CPU per event class
// comes from pprof and the benchmark's span ledger instead.
func TestEmulatorReadsNoWallClock(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no files found (%v)", err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		timePkg := ""
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
				timePkg = "time"
				if imp.Name != nil {
					timePkg = imp.Name.Name
				}
			}
		}
		if timePkg == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == timePkg && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
				t.Errorf("%s: time.%s reads the wall clock; the emulator runs on virtual time only", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}
