// Command chaosbench runs the deterministic fault-injection campaigns
// over the NIC-based multicast stack:
//
//	chaosbench                 every library scenario at 4, 8 and 16 nodes
//	chaosbench -list           print the scenario library and exit
//	chaosbench -scenario burst-loss -nodes 8
//	chaosbench -short          CI smoke: small clusters, few messages
//	chaosbench -coll           the collective-engine campaign instead:
//	                           rounds of barrier/allreduce/allgather under
//	                           burst loss, dup storms, ack loss and root
//	                           outages (-rounds sets the round count)
//
// Each scenario runs a clean baseline and a faulted run on identically
// seeded clusters, asserts the recovery invariants (every receiver got
// every byte exactly once in order, all buffers and tokens returned, no
// leaked timers, balanced fabric accounting) and reports the recovery
// latency the fault cost. Two runs with the same -seed produce
// byte-identical output.
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
	nodeList := flag.String("nodes", "4,8,16", "comma-separated cluster sizes")
	msgs := flag.Int("msgs", 12, "multicast messages per run")
	size := flag.Int("size", 10000, "message size in bytes")
	collMode := flag.Bool("coll", false, "run the collective-engine campaign (barrier/allreduce/allgather under faults)")
	rounds := flag.Int("rounds", 4, "collective rounds per run (-coll only)")
	veclen := flag.Int("veclen", 4, "collective vector elements (-coll only)")
	seed := flag.Int64("seed", 1, "campaign seed")
	fabricName := flag.String("fabric", "myrinet", "interconnect backend: "+harness.FabricNames())
	ackEvery := flag.Int("ack-every", 0, "run with the ack economy enabled: cumulative acks every N packets plus piggybacking and tree aggregation (0/1 = per-packet acks)")
	short := flag.Bool("short", false, "CI smoke mode: 4/8 nodes, 10 messages")
	list := flag.Bool("list", false, "print the scenario library and exit")
	parallel := flag.Int("parallel", 0, "max parallel campaign points (0 = all cores, 1 = serial)")
	showMetrics := flag.Bool("metrics", false, "report per-layer metrics after the campaign")
	metricsJSON := flag.Bool("metrics-json", false, "emit the metrics report as JSON")
	flag.Parse()

	campaign, name, width := chaos.Multicast, "chaos campaign", 18
	listHint := "-list"
	if *collMode {
		campaign, name, width = chaos.Collective, "collective chaos campaign", 24
		listHint = "-coll -list"
	}
	if *list {
		for _, sc := range chaos.Library(campaign) {
			fmt.Printf("%-*s %s\n", width, sc.Name, sc.Desc)
		}
		return
	}

	scenarios, err := chaos.Select(campaign, *scenario)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaosbench: %v (use %s)\n", err, listHint)
		os.Exit(2)
	}
	nodes, err := harness.ParseInts(*nodeList, 2, "cluster size")
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaosbench: %v\n", err)
		os.Exit(2)
	}
	if *short {
		nodes = []int{4, 8}
		*msgs = 10
	}

	o := harness.DefaultOptions()
	o.Seed = *seed
	o.Workers = *parallel
	fc, err := harness.FabricPreset(*fabricName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaosbench: %v\n", err)
		os.Exit(2)
	}
	o.Fabric = fc
	o.AckEconomy = *ackEvery
	if *showMetrics || *metricsJSON {
		o.Metrics = metrics.New()
	}
	rep := harness.NewReporter(o.Metrics)
	if rep.Enabled() {
		rep.JSON = *metricsJSON
	}

	results := o.ChaosSweep(scenarios, nodes, nil, chaos.Config{
		Msgs: *msgs, Size: *size, Rounds: *rounds, Veclen: *veclen,
	})
	title := fmt.Sprintf("%s: %d scenarios x %d cluster sizes, fabric %s, seed %d",
		name, len(scenarios), len(nodes), fc.Kind, *seed)
	harness.WriteChaosTable(os.Stdout, title, campaign, results)
	rep.Report(os.Stdout, name)

	if n := harness.ChaosFailures(results); n > 0 {
		fmt.Fprintf(os.Stderr, "chaosbench: %d of %d campaign points FAILED\n", n, len(results))
		os.Exit(1)
	}
	fmt.Printf("all %d campaign points passed\n", len(results))
}
