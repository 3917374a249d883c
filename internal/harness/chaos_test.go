package harness

import (
	"bytes"
	"testing"

	"repro/internal/chaos"
	"repro/internal/metrics"
)

func chaosTestScenarios(t *testing.T) []chaos.Scenario {
	t.Helper()
	var out []chaos.Scenario
	for _, name := range []string{"root-link-outage", "dup-storm"} {
		sc, ok := chaos.Find(chaos.Multicast, name)
		if !ok {
			t.Fatalf("scenario %s missing from library", name)
		}
		out = append(out, sc)
	}
	return out
}

// TestChaosSweepDeterministicAcrossWorkers renders the same campaign
// serial and fanned out and requires byte-identical tables — the
// reproducibility contract chaosbench advertises.
func TestChaosSweepDeterministicAcrossWorkers(t *testing.T) {
	scs := chaosTestScenarios(t)
	nodes := []int{4, 8}

	serial := DefaultOptions()
	serial.Seed = 7
	serial.Workers = 1
	fanned := DefaultOptions()
	fanned.Seed = 7
	fanned.Workers = 4

	var a, b bytes.Buffer
	base := chaos.Config{Msgs: 6, Size: 4096}
	WriteChaosTable(&a, "campaign", chaos.Multicast, serial.ChaosSweep(scs, nodes, nil, base))
	WriteChaosTable(&b, "campaign", chaos.Multicast, fanned.ChaosSweep(scs, nodes, nil, base))
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("serial and parallel sweeps diverged:\n--- serial ---\n%s--- parallel ---\n%s", a.String(), b.String())
	}
	if ChaosFailures(nil) != 0 {
		t.Fatal("empty result set reported failures")
	}
}

// TestChaosSweepSharedMetrics wires a shared registry through the sweep
// (which forces it serial) and checks the campaign's traffic landed in it.
func TestChaosSweepSharedMetrics(t *testing.T) {
	o := DefaultOptions()
	o.Seed = 7
	o.Workers = 4 // must be overridden to serial by the shared registry
	o.Metrics = metrics.New()
	results := o.ChaosSweep(chaosTestScenarios(t), []int{4}, nil, chaos.Config{Msgs: 6, Size: 4096})
	if n := ChaosFailures(results); n != 0 {
		t.Fatalf("%d scenarios failed under shared metrics", n)
	}
	s := o.Metrics.Snapshot()
	if s.CounterSum("net", "injected") == 0 {
		t.Fatal("shared registry saw no fabric traffic")
	}
	if s.CounterSum("net", "duplicated") == 0 {
		t.Fatal("shared registry saw no injected faults (dup-storm duplicates from t=0)")
	}
}

// TestWriteChaosTableItemizesFailures pins the failure rendering: a FAIL
// row must be followed by its itemized violations.
func TestWriteChaosTableItemizesFailures(t *testing.T) {
	res := []chaos.Result{{
		Scenario:   "doomed",
		Nodes:      4,
		Violations: []string{"node 2: lost a byte"},
	}}
	var buf bytes.Buffer
	WriteChaosTable(&buf, "campaign", chaos.Multicast, res)
	out := buf.String()
	for _, want := range []string{"FAIL", "doomed @ 4 nodes violated:", "node 2: lost a byte"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

// TestParseInts pins the shared list-flag parser, error text included:
// the benches print it verbatim.
func TestParseInts(t *testing.T) {
	got, err := ParseInts("4, 8,16", 2, "cluster size")
	if err != nil || len(got) != 3 || got[0] != 4 || got[1] != 8 || got[2] != 16 {
		t.Fatalf("ParseInts = %v, %v", got, err)
	}
	for _, tc := range []struct{ in, want string }{
		{"4,1", `bad cluster size "1" (want integers >= 2)`},
		{"4,x", `bad cluster size "x" (want integers >= 2)`},
	} {
		if _, err := ParseInts(tc.in, 2, "cluster size"); err == nil || err.Error() != tc.want {
			t.Errorf("ParseInts(%q) err = %v, want %q", tc.in, err, tc.want)
		}
	}
}
