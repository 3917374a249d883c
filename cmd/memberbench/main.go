// Command memberbench runs the dynamic-membership campaigns: a churn
// plan of join/leave requests rolls the multicast group through epochs
// while payloads stream, under each fault scenario in the membership
// library.
//
//	memberbench                    every scenario at 6/8/12 nodes x 4/8/12 transitions
//	memberbench -list              print the scenario library and exit
//	memberbench -scenario churn-under-loss -nodes 8 -transitions 10
//	memberbench -short             CI smoke: small sweep, few messages
//
// Each point runs a fault-free baseline and a faulted run on identically
// seeded clusters and asserts the membership invariant — every payload
// multicast in epoch E is delivered exactly once, in order, to exactly
// E's members — plus the full quiescence, resource and packet-accounting
// invariants. Two runs with the same -seed produce byte-identical
// output, serial or -parallel.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/metrics"
)

func main() {
	scenario := flag.String("scenario", "", "comma-separated scenario names (empty = whole library)")
	nodeList := flag.String("nodes", "6,8,12", "comma-separated cluster sizes")
	churnList := flag.String("transitions", "4,8,12", "comma-separated join/leave transition counts (churn rate)")
	msgs := flag.Int("msgs", 16, "multicast payloads per run")
	size := flag.Int("size", 4096, "mean payload size in bytes")
	seed := flag.Int64("seed", 1, "campaign seed")
	fabricName := flag.String("fabric", "myrinet", "interconnect backend: "+harness.FabricNames())
	short := flag.Bool("short", false, "CI smoke mode: 6/8 nodes, 8 transitions, 10 payloads")
	list := flag.Bool("list", false, "print the scenario library and exit")
	parallel := flag.Int("parallel", 0, "max parallel campaign points (0 = all cores, 1 = serial)")
	showMetrics := flag.Bool("metrics", false, "report per-layer metrics after the campaign")
	metricsJSON := flag.Bool("metrics-json", false, "emit the metrics report as JSON")
	flag.Parse()

	if *list {
		for _, sc := range chaos.Library(chaos.Membership) {
			fmt.Printf("%-26s %s\n", sc.Name, sc.Desc)
		}
		return
	}

	scenarios, err := chaos.Select(chaos.Membership, *scenario)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memberbench: %v (use -list)\n", err)
		os.Exit(2)
	}
	nodes, err := harness.ParseInts(*nodeList, 2, "cluster size")
	if err != nil {
		fmt.Fprintf(os.Stderr, "memberbench: %v\n", err)
		os.Exit(2)
	}
	transitions, err := harness.ParseInts(*churnList, 1, "transition count")
	if err != nil {
		fmt.Fprintf(os.Stderr, "memberbench: %v\n", err)
		os.Exit(2)
	}
	if *short {
		nodes = []int{6, 8}
		transitions = []int{8}
		*msgs = 10
	}

	o := harness.DefaultOptions()
	o.Seed = *seed
	o.Workers = *parallel
	fc, err := harness.FabricPreset(*fabricName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memberbench: %v\n", err)
		os.Exit(2)
	}
	o.Fabric = fc
	if *showMetrics || *metricsJSON {
		o.Metrics = metrics.New()
	}
	rep := harness.NewReporter(o.Metrics)
	if rep.Enabled() {
		rep.JSON = *metricsJSON
	}

	results := o.ChaosSweep(scenarios, nodes, transitions, chaos.Config{Msgs: *msgs, Size: *size})
	title := fmt.Sprintf("membership campaign: %d scenarios x %d cluster sizes x %d churn rates, fabric %s, seed %d",
		len(scenarios), len(nodes), len(transitions), fc.Kind, *seed)
	harness.WriteChaosTable(os.Stdout, title, chaos.Membership, results)
	rep.Report(os.Stdout, "membership campaign")

	if n := harness.ChaosFailures(results); n > 0 {
		fmt.Fprintf(os.Stderr, "memberbench: %d of %d campaign points FAILED\n", n, len(results))
		os.Exit(1)
	}
	fmt.Printf("all %d campaign points passed\n", len(results))
}
