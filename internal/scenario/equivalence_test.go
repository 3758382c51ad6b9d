package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestStreamingEquivalence plays four builtins through the streaming trace
// and byte-compares each report against testdata/streaming-equiv.json, a
// frozen reference recorded from a raw-event trace that retained every
// delivery. The scenarios cover every metric path that could diverge:
// latency percentiles, per-phase windows, recovery times after churn and
// partitions, joiner coverage, and delivery rates judged against an
// end-of-run live set that shrank after earlier phases' messages were
// sent. The file has no -update path: it is the reference, not a golden
// to regenerate.
func TestStreamingEquivalence(t *testing.T) {
	raw, err := os.ReadFile("testdata/streaming-equiv.json")
	if err != nil {
		t.Fatal(err)
	}
	var frozen map[string]json.RawMessage
	if err := json.Unmarshal(raw, &frozen); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"steady-poisson", // baseline latency/percentile path
		"crash-wave",     // recovery + live set shrinking after phase 1
		"flash-crowd",    // joiner coverage
		"partition-heal", // never-recovers and recovers phases
	} {
		t.Run(name, func(t *testing.T) {
			spec, err := Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			spec.Nodes = 25
			spec.Seed = 7
			spec.TopologyScale = 8
			// Compress the timeline 3× to keep the suite fast; churn and
			// network offsets shrink with their phases.
			for i := range spec.Phases {
				p := &spec.Phases[i]
				p.Duration /= 3
				for j := range p.Churn {
					p.Churn[j].At /= 3
					p.Churn[j].Over /= 3
				}
				for j := range p.Network {
					p.Network[j].At /= 3
				}
			}
			eng, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			enc, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			// The reference sits indented one level inside the file, so
			// both sides are compared in compact form.
			var got, want bytes.Buffer
			if err := json.Compact(&got, enc); err != nil {
				t.Fatal(err)
			}
			if err := json.Compact(&want, frozen[name]); err != nil {
				t.Fatalf("%s missing from the reference: %v", name, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("streaming report diverged from the frozen reference:\ngot:\n%s\nwant:\n%s", enc, frozen[name])
			}
		})
	}
}
