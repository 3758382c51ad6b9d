package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunT1(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"reproduce", "-nodes", "20", "-scale", "8", "t1-mean-latency"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errOut.String())
	}
	for _, want := range []string{"1 of 1 claims hold", "## `t1-mean-latency` · §5.1 · holds", "paper 49.83"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestRunCSV(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"reproduce", "-nodes", "20", "-messages", "10", "-scale", "8", "-csv", "s1-deliveries"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "claim,verdict,metric,run,") || !strings.Contains(out.String(), "\ns1-deliveries,holds,") {
		t.Fatalf("csv output:\n%s", out.String())
	}
}

// TestReproduceFailsOnFailedClaim: a claim that fails is printed with its
// verdict and makes the command fail. At 20 nodes on an eighth of the
// routers the network has a tenth of the paper's routers.
func TestReproduceFailsOnFailedClaim(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"reproduce", "-nodes", "20", "-scale", "8", "t1-network-nodes"}, &out, &errOut)
	if err == nil || !strings.Contains(out.String(), "· fails") {
		t.Fatalf("err %v, output:\n%s", err, out.String())
	}
}

func TestRunMapIsCSV(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"map", "-nodes", "15", "-messages", "10", "-scale", "8"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "strategy,nodeA,nodeB,") {
		t.Fatalf("map output missing header:\n%s", out.String())
	}
	for _, s := range []string{"\neager,", "\nranked,", "\nradius,"} {
		if !strings.Contains(out.String(), s) {
			t.Fatalf("map output lacks %q rows", s)
		}
	}
}

// TestStructureMapCSV: the map export has the exact header, a row per
// loaded connection, and every row names one of Fig. 4's strategies.
func TestStructureMapCSV(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"map", "-nodes", "20", "-messages", "10", "-scale", "8", "-seed", "3"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "strategy,nodeA,nodeB,ax,ay,bx,by,payloads,bytes" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) < 10 {
		t.Fatalf("only %d link rows", len(lines)-1)
	}
	seen := map[string]bool{}
	for _, l := range lines[1:] {
		if f := strings.Split(l, ","); len(f) != 9 {
			t.Fatalf("row %q has %d fields", l, len(f))
		}
		seen[strings.SplitN(l, ",", 2)[0]] = true
	}
	for _, s := range []string{"eager", "radius", "ranked"} {
		if !seen[s] {
			t.Fatalf("missing strategy %q in map export", s)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("strategies %v, want only eager, radius and ranked", seen)
	}
}

func TestRunErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"bogus"},
		nil,
		{"t1"},
		{"reproduce", "no-such-claim"},
		{"reproduce", "-bogusflag"},
		{"map", "extra"},
	} {
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
}
