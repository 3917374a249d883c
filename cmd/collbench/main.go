// Command collbench measures the NIC-resident collective engine against
// the traditional host-based algorithms at scale: MPI_Barrier,
// MPI_Allreduce and MPI_Allgather latency for 512, 1024 and 2048-host
// systems, on either fabric backend, with the sharded conservative
// engine carrying the big runs.
//
//	collbench                      the full sweep at 512/1024/2048 hosts
//	collbench -fabric clos         same sweep on the Clos/RDMA backend
//	collbench -collectives barrier -nodes 2048
//	collbench -skew 512            barrier skew-tolerance figure instead:
//	                               host vs NIC barrier latency under
//	                               0-400 µs average process skew
//	collbench -short               CI smoke: 64/128 hosts, few iterations
//
// Both columns ride the full MPI layer, so the comparison includes every
// host-side cost. Allgather results past the eager limit (8·N·veclen >
// 16287 bytes, e.g. 2048 hosts at veclen 1) cannot ride the NIC path's
// preposted token pool; those rows are annotated as host fallback.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/harness"
)

func main() {
	nodesFlag := flag.String("nodes", "", "comma-separated system sizes (default 512,1024,2048)")
	collsFlag := flag.String("collectives", strings.Join(harness.CollNames, ","),
		"comma-separated collectives to measure")
	veclen := flag.Int("veclen", 1, "reduction/gather vector elements per rank")
	warmup := flag.Int("warmup", 2, "warmup operations per point")
	iters := flag.Int("iters", 10, "timed operations per point")
	skewNodes := flag.Int("skew", 0, "run the barrier skew-tolerance figure at this system size instead")
	skewIters := flag.Int("skew-iters", 40, "timed barriers per skew point (-skew only)")
	seed := flag.Int64("seed", 1, "simulation seed")
	fabricName := flag.String("fabric", "myrinet", "interconnect backend: "+harness.FabricNames())
	shards := flag.Int("shards", 4, "engines per simulation run (0 or 1 = serial engine)")
	parallel := flag.Int("parallel", 0, "max parallel sweep points (0 = all cores, 1 = serial)")
	short := flag.Bool("short", false, "CI smoke mode: 64/128 hosts, few iterations")
	plotFlag := flag.Bool("plot", false, "ASCII chart of the skew figure (-skew only)")
	flag.Parse()

	fc, err := harness.FabricPreset(*fabricName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "collbench: %v\n", err)
		os.Exit(2)
	}

	o := harness.DefaultOptions()
	o.Warmup = *warmup
	o.Iters = *iters
	o.SkewIters = *skewIters
	o.Seed = *seed
	o.Workers = *parallel
	o.Shards = *shards
	o.Fabric = fc

	nodeCounts := harness.CollScaleNodeCounts()
	if *nodesFlag != "" {
		nodeCounts, err = harness.ParseInts(*nodesFlag, 2, "system size")
		if err != nil {
			fmt.Fprintf(os.Stderr, "collbench: %v\n", err)
			os.Exit(2)
		}
	}
	if *short {
		nodeCounts = []int{64, 128}
		o.Warmup, o.Iters = 1, 3
		o.SkewIters = 6
	}

	if *skewNodes > 0 {
		n := *skewNodes
		if *short && n > 128 {
			n = 64
		}
		pts := o.BarrierSkewSweep(n, harness.SkewSweep())
		title := fmt.Sprintf("Barrier skew tolerance: %d hosts, fabric %s, %d iters, seed %d",
			n, fc.Kind, o.SkewIters, o.Seed)
		harness.WriteSkew(os.Stdout, title, pts)
		if *plotFlag {
			fmt.Println()
			harness.PlotSkew(os.Stdout, "avg time inside MPI_Barrier under process skew", pts)
		}
		return
	}

	var colls []string
	for _, f := range strings.Split(*collsFlag, ",") {
		name := strings.TrimSpace(f)
		ok := false
		for _, known := range harness.CollNames {
			if name == known {
				ok = true
			}
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "collbench: unknown collective %q (have %s)\n",
				name, strings.Join(harness.CollNames, ", "))
			os.Exit(2)
		}
		colls = append(colls, name)
	}

	pts := o.CollScaleSweep(colls, nodeCounts, *veclen)
	title := fmt.Sprintf("Collective latency: host-based (HB) vs NIC-resident engine (NB), veclen %d, fabric %s, %d iters, seed %d",
		*veclen, fc.Kind, o.Iters, o.Seed)
	harness.WriteCollScale(os.Stdout, title, pts)
}
