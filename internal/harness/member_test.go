package harness

import (
	"bytes"
	"testing"

	"repro/internal/chaos"
	"repro/internal/metrics"
)

func memberTestScenarios(t *testing.T) []chaos.Scenario {
	t.Helper()
	var out []chaos.Scenario
	for _, name := range []string{"churn-clean", "churn-under-loss"} {
		sc, ok := chaos.Find(chaos.Membership, name)
		if !ok {
			t.Fatalf("scenario %s missing from membership library", name)
		}
		out = append(out, sc)
	}
	return out
}

// The membership campaign must be byte-identical whether it runs serial
// or fanned out — the reproducibility contract memberbench advertises.
func TestMemberSweepDeterministicAcrossWorkers(t *testing.T) {
	scs := memberTestScenarios(t)

	serial := DefaultOptions()
	serial.Seed = 7
	serial.Workers = 1
	fanned := DefaultOptions()
	fanned.Seed = 7
	fanned.Workers = 4

	var a, b bytes.Buffer
	base := chaos.Config{Msgs: 10, Size: 2048}
	WriteChaosTable(&a, "campaign", chaos.Membership, serial.ChaosSweep(scs, []int{6, 8}, []int{4, 8}, base))
	WriteChaosTable(&b, "campaign", chaos.Membership, fanned.ChaosSweep(scs, []int{6, 8}, []int{4, 8}, base))
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("serial and parallel sweeps diverged:\n--- serial ---\n%s--- parallel ---\n%s", a.String(), b.String())
	}
	if ChaosFailures(nil) != 0 {
		t.Fatal("empty result set reported failures")
	}
}

// A shared registry forces the sweep serial and must end up holding the
// campaign's membership instrumentation.
func TestMemberSweepSharedMetrics(t *testing.T) {
	o := DefaultOptions()
	o.Seed = 7
	o.Workers = 4 // must be overridden to serial by the shared registry
	o.Metrics = metrics.New()
	results := o.ChaosSweep(memberTestScenarios(t), []int{8}, []int{8}, chaos.Config{Msgs: 10, Size: 2048})
	if n := ChaosFailures(results); n != 0 {
		t.Fatalf("%d membership points failed under shared metrics", n)
	}
	s := o.Metrics.Snapshot()
	if s.CounterSum("member", "transitions") == 0 {
		t.Fatal("shared registry saw no membership transitions")
	}
	if s.CounterSum("member", "joins")+s.CounterSum("member", "leaves") == 0 {
		t.Fatal("shared registry saw no joins or leaves")
	}
}

// A FAIL row must be followed by its itemized violations.
func TestWriteMemberTableItemizesFailures(t *testing.T) {
	res := []chaos.Result{{
		Scenario:    "doomed",
		Nodes:       8,
		Transitions: 5,
		Violations:  []string{"node 3: delivered a payload from a departed epoch"},
	}}
	var buf bytes.Buffer
	WriteChaosTable(&buf, "campaign", chaos.Membership, res)
	for _, want := range []string{"FAIL", "doomed @ 8 nodes / 5 transitions violated:", "departed epoch"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("table output missing %q:\n%s", want, buf.String())
		}
	}
}
