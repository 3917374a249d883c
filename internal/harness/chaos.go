package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/chaos"
)

// ChaosSweep runs each scenario at every cluster size and every churn
// rate (membership transition count; nil runs base.Transitions alone)
// under the parallel sweep runner, returning results scenario-major,
// then size-major, in deterministic order. base carries the workload
// shape (Msgs, Size, Rounds, Veclen); the options supply the seed,
// fabric, ack economy and metrics registry. Each point is an independent
// experiment (own cluster, own seeded RNGs), so results are
// byte-identical whether the sweep runs serial or fanned out — the
// property the campaigns' reproducibility contract rests on. A shared
// metrics registry (Options.Metrics) forces the sweep serial, as
// everywhere in the harness.
func (o Options) ChaosSweep(scenarios []chaos.Scenario, nodeCounts, churn []int, base chaos.Config) []chaos.Result {
	type point struct {
		sc  chaos.Scenario
		cfg chaos.Config
	}
	if len(churn) == 0 {
		churn = []int{base.Transitions}
	}
	base.Seed = o.Seed
	base.Metrics = o.Metrics
	base.Fabric = o.Fabric
	base.AckEvery = o.AckEconomy
	var pts []point
	for _, sc := range scenarios {
		for _, n := range nodeCounts {
			for _, tr := range churn {
				cfg := base
				cfg.Nodes, cfg.Transitions = n, tr
				pts = append(pts, point{sc, cfg})
			}
		}
	}
	return parallelMap(o.workerCount(len(pts)), pts, func(_ int, p point) chaos.Result {
		return chaos.Run(p.sc, p.cfg)
	})
}

// chaosTables holds each campaign's table columns: the header and a
// result's cells under it.
var chaosTables = [...]struct {
	head  string
	cells func(r chaos.Result, verdict string) []any
}{
	chaos.Multicast: {"scenario\tnodes\tverdict\trecovery\tdrops\tdups\tpaused\tretrans\ttimeouts\tnacks",
		func(r chaos.Result, verdict string) []any {
			return []any{r.Scenario, r.Nodes, verdict, r.Recovery,
				r.Drops, r.Dups, r.PausedDrops, r.Retransmits, r.Timeouts, r.Nacks}
		}},
	chaos.Collective: {"scenario\tnodes\tverdict\trecovery\tdrops\tdups\tpaused\tretrans\tcolldups",
		func(r chaos.Result, verdict string) []any {
			return []any{r.Scenario, r.Nodes, verdict, r.Recovery,
				r.Drops, r.Dups, r.PausedDrops, r.Retransmits, r.CollDups}
		}},
	chaos.Membership: {"scenario\tnodes\tchurn\tverdict\tepochs\trejected\trecovery\tdrops\tdups\tretrans\tstale\tfuture\tackdrop",
		func(r chaos.Result, verdict string) []any {
			return []any{r.Scenario, r.Nodes, r.Transitions, verdict, r.Epochs, r.Rejected,
				r.Recovery, r.Drops, r.Dups, r.Retransmits,
				r.StaleEpochDrops, r.FutureDrops, r.AckedAsDropped}
		}},
}

// WriteChaosTable renders a campaign's per-point pass/fail and
// recovery-latency table in that campaign's columns, with invariant
// violations itemized under any failing row.
func WriteChaosTable(w io.Writer, title string, k chaos.Campaign, results []chaos.Result) {
	table := chaosTables[k]
	fmt.Fprintf(w, "%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, table.head)
	for _, r := range results {
		verdict := "PASS"
		if !r.Pass {
			verdict = "FAIL"
		}
		for i, cell := range table.cells(r, verdict) {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, cell)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	for _, r := range results {
		if r.Pass {
			continue
		}
		if k == chaos.Membership {
			fmt.Fprintf(w, "\n%s @ %d nodes / %d transitions violated:\n", r.Scenario, r.Nodes, r.Transitions)
		} else {
			fmt.Fprintf(w, "\n%s @ %d nodes violated:\n", r.Scenario, r.Nodes)
		}
		for _, v := range r.Violations {
			fmt.Fprintf(w, "  - %s\n", v)
		}
	}
}

// ChaosFailures counts failing results.
func ChaosFailures(results []chaos.Result) int {
	n := 0
	for _, r := range results {
		if !r.Pass {
			n++
		}
	}
	return n
}
