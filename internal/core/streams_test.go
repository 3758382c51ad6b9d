package core

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"emcast/internal/msg"
	"emcast/internal/peer"
	"emcast/internal/strategy"
)

// TestStreamsIndependent pins what the named streams are for: draws on
// one purpose never shift another's.
//   - purposes: after extra draws on one purpose, every other purpose's
//     next 1,000 outputs equal a fresh stream's.
//   - node: a node whose strategy flips an extra coin per decision (flat
//     under §4.3 noise, against plain flat) sends to the same gossip
//     targets in the same order and the same shuffles, byte for byte;
//     only which targets get the payload eagerly differs.
func TestStreamsIndependent(t *testing.T) {
	purposes := []peer.Purpose{peer.StreamJitter, peer.StreamMembership, peer.StreamStrategy}
	t.Run("purposes", func(t *testing.T) {
		const seed, self = 7, peer.ID(3)
		for _, extra := range purposes {
			for _, other := range purposes {
				if other == extra {
					continue
				}
				drawn := peer.Stream(seed, self, extra)
				for i := 0; i < 257; i++ {
					drawn.Uint64()
				}
				got, want := peer.Stream(seed, self, other), peer.Stream(seed, self, other)
				for i := 0; i < 1000; i++ {
					drawn.Uint64()
					if g, w := got.Uint64(), want.Uint64(); g != w {
						t.Fatalf("purpose %d output %d = %#x after draws on purpose %d, want %#x", other, i, g, extra, w)
					}
				}
			}
		}
		// Distinct purposes, nodes and seeds are unrelated streams.
		firsts := map[uint64][3]int64{}
		for _, seed := range []int64{1, 2} {
			for _, node := range []peer.ID{0, 1} {
				for _, p := range purposes {
					key := [3]int64{seed, int64(node), int64(p)}
					v := peer.Stream(seed, node, p).Uint64()
					if prev, dup := firsts[v]; dup {
						t.Fatalf("streams %v and %v (seed, node, purpose) start with the same output", prev, key)
					}
					firsts[v] = key
				}
			}
		}
	})
	t.Run("node", func(t *testing.T) {
		plain := streamsRun(t, strategy.Params{Strategy: "flat", FlatP: 0.5})
		noisy := streamsRun(t, strategy.Params{Strategy: "flat", FlatP: 0.5, Noise: 0.5})
		if len(plain.targets) == 0 || len(plain.shuffles) == 0 {
			t.Fatalf("run sent %d gossip frames and %d shuffles, want some of each", len(plain.targets), len(plain.shuffles))
		}
		if !slices.Equal(plain.targets, noisy.targets) {
			t.Fatalf("gossip targets moved with the strategy's draws:\nflat  %v\nnoisy %v", plain.targets, noisy.targets)
		}
		if len(plain.shuffles) != len(noisy.shuffles) {
			t.Fatalf("%d shuffles under flat, %d under noisy flat", len(plain.shuffles), len(noisy.shuffles))
		}
		for i := range plain.shuffles {
			if plain.shuffles[i].to != noisy.shuffles[i].to || !bytes.Equal(plain.shuffles[i].data, noisy.shuffles[i].data) {
				t.Fatalf("shuffle %d differs: flat to %d %x, noisy to %d %x", i,
					plain.shuffles[i].to, plain.shuffles[i].data, noisy.shuffles[i].to, noisy.shuffles[i].data)
			}
		}
		// The extra coins did change the strategy's decisions, so the
		// equalities above are not vacuous.
		if plain.eager == noisy.eager {
			t.Fatalf("eager decisions %q under both strategies; the noise coins changed nothing", plain.eager)
		}
	})
}

// streamsTrace is what one node sent over a streamsRun: the target of each
// gossip frame (MSG or IHAVE) in order, 'M' or 'I' for each of them, and
// every shuffle frame.
type streamsTrace struct {
	targets  []peer.ID
	eager    string
	shuffles []sentFrame
}

// streamsRun plays one node under p against 30 silent peers: it shuffles
// every 2 s and multicasts every 250 ms for 40 s of virtual time.
func streamsRun(t *testing.T, p strategy.Params) streamsTrace {
	t.Helper()
	net := newTestNet()
	cfg := DefaultConfig()
	cfg.Seed = 11
	node := Assemble(cfg, net.env(0), p, strategy.Knowledge{}, Options{})
	var others []peer.ID
	for i := peer.ID(1); i <= 30; i++ {
		others = append(others, i)
	}
	node.SeedView(others)
	node.Start()
	for i := 0; i < 160; i++ {
		node.Multicast([]byte{byte(i)})
		net.advance(250 * time.Millisecond)
	}
	var tr streamsTrace
	var parsed msg.Parsed
	for _, f := range net.sent {
		if err := parsed.Decode(f.data); err != nil {
			t.Fatal(err)
		}
		switch parsed.Kind {
		case msg.KindMsg:
			tr.targets = append(tr.targets, f.to)
			tr.eager += "M"
		case msg.KindIHave:
			tr.targets = append(tr.targets, f.to)
			tr.eager += "I"
		case msg.KindShuffle:
			tr.shuffles = append(tr.shuffles, f)
		}
	}
	return tr
}

// TestNoPerNodeMathRandSource keeps every per-node random draw on the
// 16-byte streams of peer.Stream (and the PCGs of ids and emunet): no
// product file of the protocol layers (and peer, gossip, lazy) may call math/rand's NewSource,
// whose source is 4.9 KB of state and about 780 rounds of seeding, and in
// sim only the node construction (buildNodes) is held to it, since the
// runner's one overlay source is per run.
func TestNoPerNodeMathRandSource(t *testing.T) {
	for _, dir := range []string{".", "../peer", "../membership", "../strategy", "../gossip", "../lazy", "../ids", "../emunet", "../sim"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no files found (%v)", dir, err)
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
			randPkg := ""
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "math/rand" {
					randPkg = "rand"
					if imp.Name != nil {
						randPkg = imp.Name.Name
					}
				}
			}
			if randPkg == "" {
				continue
			}
			var nodes []ast.Node
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); !ok || dir != "../sim" || fn.Name.Name == "buildNodes" {
					nodes = append(nodes, decl)
				}
			}
			for _, n := range nodes {
				ast.Inspect(n, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == randPkg && sel.Sel.Name == "NewSource" {
						t.Errorf("%s: rand.NewSource on a per-node path; use peer.Stream", fset.Position(sel.Pos()))
					}
					return true
				})
			}
		}
	}
}
