package emcast

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// escapePackages are the packages on a delivery's path, simulated or over
// TCP, whose heap moves the ledger tracks.
var escapePackages = []string{
	"./internal/core", "./internal/gossip", "./internal/lazy", "./internal/membership",
	"./internal/ids", "./internal/msg", "./internal/strategy", "./internal/trace",
	"./internal/emunet", "./internal/neem", ".",
}

// movedToHeap matches the compiler's report of a variable it had to
// allocate on the heap: "file:line:col: moved to heap: name".
var movedToHeap = regexp.MustCompile(`^(\S+\.go):(\d+):\d+: moved to heap: (\S+)$`)

// TestEscapeLedger pins every variable the compiler moves to the heap in
// the packages above, keyed by file, enclosing function and variable, so
// that moving code around does not churn it and a new escape — an
// allocation per call that nothing else reports until a benchmark does —
// fails here, named. Escape analysis changes between Go releases, so the
// ledger holds on the Go that CI pins and is skipped on any other. After
// an intended change, regenerate it with
//
//	go test -run TestEscapeLedger -update .
func TestEscapeLedger(t *testing.T) {
	if v := runtime.Version(); v != "go1.24" && !strings.HasPrefix(v, "go1.24.") {
		t.Skipf("the ledger is taken on go1.24, this is %s", v)
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	out, err := exec.Command(gobin, append([]string{"build", "-gcflags=-m"}, escapePackages...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	got, err := escapeLedger(out)
	if err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/escapes.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("heap moves differ from %s (regenerate with -update if intended)\ngot:\n%swant:\n%s", golden, got, want)
	}
}

// escapeLedger turns the compiler's -m output into the ledger: one sorted
// line per heap move, "file function variable".
func escapeLedger(out []byte) (string, error) {
	var lines []string
	funcs := map[string][]funcSpan{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		m := movedToHeap.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		file := strings.TrimPrefix(m[1], "./")
		line, _ := strconv.Atoi(m[2])
		spans, ok := funcs[file]
		if !ok {
			var err error
			if spans, err = funcSpans(file); err != nil {
				return "", err
			}
			funcs[file] = spans
		}
		name := "-" // package level
		for _, f := range spans {
			if f.first <= line && line <= f.last {
				name = f.name
			}
		}
		lines = append(lines, fmt.Sprintf("%s %s %s", file, name, m[3]))
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n") + "\n", sc.Err()
}

// funcSpan is the lines of one function declaration.
type funcSpan struct {
	name        string // Func, or Recv.Method
	first, last int
}

func funcSpans(file string) ([]funcSpan, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var spans []funcSpan
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) > 0 {
			typ := fd.Recv.List[0].Type
			if s, ok := typ.(*ast.StarExpr); ok {
				typ = s.X
			}
			if ix, ok := typ.(*ast.IndexExpr); ok {
				typ = ix.X
			}
			if id, ok := typ.(*ast.Ident); ok {
				name = id.Name + "." + name
			}
		}
		spans = append(spans, funcSpan{name, fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line})
	}
	return spans, nil
}
