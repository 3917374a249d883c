package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// small shrinks a workload to test size, keeping its kind, fabric, loss
// and engine configuration.
func small(t *testing.T, name string) spec {
	t.Helper()
	s, ok := lookup(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	switch s.kind {
	case mcastKind:
		s.hosts, s.msgs = 24, 4
	case bcastKind:
		s.hosts, s.rounds, s.maxSize = 4, 2, 32
	case collKind:
		s.hosts, s.rounds = 40, 2
	}
	return s
}

// wantSamples is the latency sample count of one clean trial.
func wantSamples(s spec) int {
	switch s.kind {
	case mcastKind:
		return s.msgs * (s.hosts - 1)
	case bcastKind:
		return 2 * s.rounds * len(s.bcastSizes()) * s.hosts
	default:
		return 2 * s.rounds * s.hosts
	}
}

func TestWorkloadsVerifyClean(t *testing.T) {
	for _, sp := range specs {
		s := small(t, sp.name)
		t.Run(s.name, func(t *testing.T) {
			tr := s.trial(runConfig{seed: 3, shards: s.shards})
			if tr.failed != 0 {
				t.Fatalf("failed = %d of %d on a clean run", tr.failed, tr.attempted)
			}
			if got, want := len(tr.lat), wantSamples(s); got != want {
				t.Errorf("latency samples = %d, want %d", got, want)
			}
			if tr.last <= tr.start || tr.ops == 0 {
				t.Errorf("run phase [%d, %d] with %d ops", tr.start, tr.last, tr.ops)
			}
		})
	}
}

func TestCorruptPayloadCountsAsFailed(t *testing.T) {
	s := small(t, "storm-4k")
	tr := s.trial(runConfig{seed: 1, shards: s.shards, corruptFirst: true})
	if tr.failed != s.hosts-1 {
		t.Errorf("failed = %d, want one per receiver (%d)", tr.failed, s.hosts-1)
	}
}

func TestMissingDeliveryCountsAsFailed(t *testing.T) {
	s := small(t, "storm-4k")
	tr := s.trial(runConfig{seed: 1, shards: s.shards, dropLast: true})
	if tr.failed != s.hosts-1 {
		t.Errorf("failed = %d, want one per receiver (%d)", tr.failed, s.hosts-1)
	}
	rep := newReport(endToEnd)
	rep.add(tr)
	if rep.correct() {
		t.Error("a run with a missing delivery reported correct")
	}
}

// TestTimelineGuard: tracing, sharding and repetition replay the same
// timeline, and a timeline that moves fails the report.
func TestTimelineGuard(t *testing.T) {
	for _, sp := range specs {
		s := small(t, sp.name)
		t.Run(s.name, func(t *testing.T) {
			rep := newReport(perLayer)
			base := s.trial(runConfig{seed: 5, shards: 1})
			rep.guard("repeated", base, s.trial(runConfig{seed: 5, shards: 1}))
			rep.guard("traced", base, s.trial(runConfig{seed: 5, shards: 1, tr: newTracer()}))
			if s.shards > 1 {
				rep.guard("sharded", base, s.trial(runConfig{seed: 5, shards: s.shards}))
			}
			if !rep.correct() {
				t.Fatal(rep.problems)
			}
			moved := *base
			moved.timeline.end++
			rep.guard("moved", base, &moved)
			if rep.correct() {
				t.Error("a moved timeline passed the guard")
			}
		})
	}
}

func TestSeedDrivesInputs(t *testing.T) {
	for _, sp := range specs {
		s := small(t, sp.name)
		a := s.trial(runConfig{seed: 1, shards: 1})
		b := s.trial(runConfig{seed: 2, shards: 1})
		if a.timeline == b.timeline {
			t.Errorf("%s: seeds 1 and 2 gave the same timeline", s.name)
		}
	}
}

func TestTracedReportHasEveryLayerMetric(t *testing.T) {
	s := small(t, "storm-4k")
	path := filepath.Join(t.TempDir(), "spans.json")
	rep := measureTraced(s, 1, 0, path)
	if !rep.correct() {
		t.Fatal(rep.problems)
	}
	var buf bytes.Buffer
	if err := rep.print(&buf); err != nil {
		t.Fatal(err)
	}
	res := lastJSON(t, buf.String())
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("traced report lacks %s", m.name)
		}
	}
	if res.Metrics["sim.windows"].Value == 0 || res.Metrics["core.mcast_forwarded"].Value == 0 {
		t.Errorf("sharded and core counters read zero: %+v", res.Metrics)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range chrome.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"cluster.New", "core.InstallGroup", "run", "mcast", "deliver"} {
		if !names[want] {
			t.Errorf("span file has no %q span", want)
		}
	}
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func lastJSON(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

func TestEndToEndReport(t *testing.T) {
	s := small(t, "mpi-sweep-16")
	var buf bytes.Buffer
	if err := measure(s, 1, 0).print(&buf); err != nil {
		t.Fatal(err)
	}
	res := lastJSON(t, buf.String())
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result %+v", res)
	}
	for _, m := range endToEnd {
		v, ok := res.Metrics[m.name]
		if !ok || v.Unit != m.unit || v.Value <= 0 {
			t.Errorf("%s = %+v", m.name, v)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and this program in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := lookup(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a workload here", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program reports %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if b.EndToEnd[i].Name != m.name || b.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %s %s, want %s %s", i, b.EndToEnd[i].Name, b.EndToEnd[i].Unit, m.name, m.unit)
		}
	}
	for i, m := range perLayer {
		if b.PerLayer[i].Name != m.name || b.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %s %s, want %s %s", i, b.PerLayer[i].Name, b.PerLayer[i].Unit, m.name, m.unit)
		}
	}
}

func TestBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "storm-4k", "-trace", "2"},
		{"-bogus"},
	} {
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
	if out.Len() != 0 {
		t.Errorf("bad flags printed a result: %q", out.String())
	}
}
