// Command perfbench is the repository benchmark. It drives one workload
// through the simulator's public packages (cluster, tree, core, mpi,
// coll), checks every delivered output, and prints each metric with its
// unit and sample count, then one JSON result line.
//
// With -trace 0 it reports the end-to-end metrics: it repeats set-up plus
// run phase on the same seed until -seconds have passed, reports host
// figures as medians over those trials and simulated figures from the
// first (every trial must replay the same timeline). With -trace 1 it
// runs the workload untraced and traced, checks that both (and, for a
// sharded workload, its serial run) fire the same events, end at the same
// virtual time and produce the same latency samples, reports the
// per-layer metrics, and writes the spans as Chrome trace-event JSON.
//
//	go run . -workload storm-4k -seed 1 -seconds 10 -trace 0
//
// The exit status is 1 when any output is wrong, any operation fails or a
// timeline check fails, 2 on bad flags. README.md describes the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/sim"
)

// minTrials keeps a median of set-up times even when one trial outlasts
// the run time.
const minTrials = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "storm-4k, mpi-sweep-16, coll-1k-clos or lossy-64")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "keep repeating trials until this many seconds have passed")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics and a span file")
	spans := fs.String("spans", "", "span file of a traced run (default .bench_build/perfbench/spans-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, ok := lookup(*name)
	if !ok || (*traceMode != 0 && *traceMode != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload one of storm-4k, mpi-sweep-16, coll-1k-clos, lossy-64 and -trace 0 or 1\n")
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var rep *report
	if *traceMode == 0 {
		rep = measure(s, *seed, budget)
	} else {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.json", s.name, *seed))
		}
		rep = measureTraced(s, *seed, budget, path)
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d trace=%d trials=%d\n", s.name, *seed, *traceMode, rep.trials)
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// report collects one invocation's figures and verdict.
type report struct {
	metrics           []metric
	values            map[string]float64
	samples           map[string]int
	trials            int
	attempted, failed int
	problems          []string
}

func newReport(ms []metric) *report {
	return &report{metrics: ms, values: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) add(t *trial) {
	r.trials++
	r.attempted += t.attempted
	r.failed += t.failed
}

func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// guard fails the run when two trials of the same inputs disagree on the
// timeline: wiring the registry, tracing, sharding or simply repeating a
// trial must not move it.
func (r *report) guard(what string, a, b *trial) {
	if a.timeline != b.timeline {
		r.problems = append(r.problems, fmt.Sprintf("timeline guard (%s): events %d vs %d, end %d vs %d ns, latency digest %x vs %x",
			what, a.timeline.events, b.timeline.events, a.timeline.end, b.timeline.end, a.timeline.digest, b.timeline.digest))
	}
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *report) print(w io.Writer) error {
	for _, m := range r.metrics {
		n := ""
		if c, ok := r.samples[m.name]; ok {
			n = " (n=" + strconv.Itoa(c) + ")"
		}
		fmt.Fprintf(w, "  %-28s %16.6f %s%s\n", m.name, r.values[m.name], m.unit, n)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-28s %16.6f (%d of %d)\n", "failed_frac", frac, r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAIL: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{r.values[m.name], m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// measure is the untraced run: trials of set-up plus run phase on one
// seed, until the budget is spent.
func measure(s spec, seed int64, budget time.Duration) *report {
	rep := newReport(endToEnd)
	begun := time.Now()
	var trials []*trial
	for len(trials) < minTrials || time.Since(begun) < budget {
		t := s.trial(runConfig{seed: seed, shards: s.shards})
		rep.add(t)
		if len(trials) > 0 {
			rep.guard("repeated trial", trials[0], t)
		}
		trials = append(trials, t)
	}
	var setup, rate, heap []float64
	for _, t := range trials {
		setup = append(setup, t.setup.Seconds())
		rate = append(rate, float64(t.ops)/t.run.Seconds())
		heap = append(heap, t.heapMB)
	}
	first := trials[0]
	rep.set("setup_s", median(setup), len(trials))
	rep.set("ops_per_s", median(rate), len(trials))
	rep.set("live_heap_mb", median(heap), len(trials))
	rep.set("sim_lat_p50_us", percentile(first.lat, 0.50).Micros(), len(first.lat))
	rep.set("sim_lat_p99_us", percentile(first.lat, 0.99).Micros(), len(first.lat))
	if span := first.last - first.start; span > 0 {
		rep.set("sim_ops_per_ms", float64(first.ops)/(float64(span)/float64(sim.Millisecond)), first.ops)
	}
	return rep
}

// measureTraced is the traced run. The untraced trial on the workload's
// own engines supplies the sharded engine's figures and ns per event; the
// serial untraced and traced trials, alternated while the budget lasts,
// give the tracing overhead; the first traced trial supplies the registry
// counts and the spans.
func measureTraced(s spec, seed int64, budget time.Duration, spansPath string) *report {
	rep := newReport(perLayer)
	begun := time.Now()
	base := s.trial(runConfig{seed: seed, shards: s.shards})
	rep.add(base)
	serial := base
	if s.shards > 1 {
		serial = s.trial(runConfig{seed: seed, shards: 1})
		rep.add(serial)
		rep.guard("sharded vs serial", base, serial)
	}
	wall := func(t *trial) float64 { return (t.setup + t.run).Seconds() }
	untracedWalls := []float64{wall(serial)}

	tr := newTracer()
	traced := s.trial(runConfig{seed: seed, shards: 1, tr: tr})
	rep.add(traced)
	rep.guard("traced vs untraced", serial, traced)
	tracedWalls := []float64{wall(traced)}
	for time.Since(begun) < budget {
		u := s.trial(runConfig{seed: seed, shards: 1})
		v := s.trial(runConfig{seed: seed, shards: 1, tr: newTracer()})
		rep.add(u)
		rep.add(v)
		rep.guard("traced vs untraced", u, v)
		untracedWalls = append(untracedWalls, wall(u))
		tracedWalls = append(tracedWalls, wall(v))
	}

	fc := s.fabricConfig()
	fabric := tr.timed("fabric.Build", func() { fc.Build(sim.NewEngine(), s.hosts, fc) })
	for name, v := range layerMetrics(layerInputs{
		base: base, traced: traced, tr: tr, fabric: fabric.Seconds(),
		overhead: median(tracedWalls)/median(untracedWalls) - 1,
	}) {
		rep.values[name] = v
	}
	rep.samples["metrics.trace_overhead_frac"] = len(tracedWalls)
	if err := tr.writeChrome(spansPath); err != nil {
		rep.problems = append(rep.problems, err.Error())
	}
	return rep
}
