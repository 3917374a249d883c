package chaos

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tree"
)

// MatchKinds builds a Match selecting exactly the given frame kinds —
// the scalpel collective scenarios use to fault one protocol's traffic
// while leaving the rest of the stack clean.
func MatchKinds(kinds ...gm.Kind) Match {
	return func(p *fabric.Packet, _ *fabric.Link) bool {
		fr, ok := p.Payload.(*gm.Frame)
		if !ok {
			return false
		}
		for _, k := range kinds {
			if fr.Kind == k {
				return true
			}
		}
		return false
	}
}

// MatchCollData matches collective protocol frames (barrier rounds,
// reduce vectors, allgather chunks, ring hops), leaving their acks and
// all point-to-point/multicast traffic untouched.
func MatchCollData(p *fabric.Packet, l *fabric.Link) bool {
	return MatchKinds(gm.KindBarrier, gm.KindReduce, gm.KindGather, gm.KindRing)(p, l)
}

// MatchCollAcks matches collective acknowledgments — losing these
// exercises the stop-and-wait retransmit and duplicate-rejection paths
// on the receiving side.
func MatchCollAcks(p *fabric.Packet, l *fabric.Link) bool {
	return MatchKinds(gm.KindBarrierAck, gm.KindReduceAck, gm.KindGatherAck, gm.KindRingAck)(p, l)
}

// collVec is the deterministic contribution of node i in round r.
func collVec(r, i, veclen int) []int64 {
	v := make([]int64, veclen)
	for j := range v {
		v[j] = int64(1000*r + 100*i + j)
	}
	return v
}

// collSetup installs both collective contexts and settles their group
// tables before any fault window opens. Every node then runs cfg.Rounds
// rounds of barrier + allreduce + allgather, alternating between the
// tree-algorithm and ring-algorithm groups, and checks every result.
func collSetup(c *cluster.Cluster, ccfg *cluster.Config, cfg Config) (*traffic, error) {
	ports := c.OpenPorts(Port)

	// Both groups need the multicast tree (reduce/allgather neighborhoods
	// and the downward result multicasts) alongside the collective entry.
	c.InstallGroup(CollGroupTree, tree.Binomial(0, c.Members()), Port, Port)
	c.InstallGroup(CollGroupRing, tree.Binomial(0, c.Members()), Port, Port)
	readyTree := c.InstallCollGroup(CollGroupTree, c.Members(), Port)
	readyRing := c.InstallCollGroup(CollGroupRing, c.Members(), Port,
		coll.WithBarrierAlgo(coll.BarrierTree), coll.WithGatherAlgo(coll.GatherRing))
	c.Run()
	if !readyTree() || !readyRing() {
		return nil, errors.New("collective group installation did not settle")
	}

	nodeViol := make([][]string, cfg.Nodes)
	run := func() sim.Time {
		// Expected results per round: the allreduce sum and the flat
		// allgather concatenation over every member's contribution.
		wantSum := make([][]int64, cfg.Rounds)
		wantFlat := make([][]int64, cfg.Rounds)
		for r := 0; r < cfg.Rounds; r++ {
			wantSum[r] = make([]int64, cfg.Veclen)
			for i := 0; i < cfg.Nodes; i++ {
				v := collVec(r, i, cfg.Veclen)
				wantFlat[r] = append(wantFlat[r], v...)
				for j := range v {
					wantSum[r][j] += v[j]
				}
			}
		}

		finish := make([]sim.Time, cfg.Nodes)
		for i := 0; i < cfg.Nodes; i++ {
			i := i
			c.SpawnOn(fabric.NodeID(i), "coll-chaos", func(p *sim.Proc) {
				nd := c.Nodes[i]
				for r := 0; r < cfg.Rounds; r++ {
					gid := CollGroupTree
					if r%2 == 1 {
						gid = CollGroupRing
					}
					// Rotating per-round skew so a different member is last
					// into every barrier.
					p.Compute(sim.Micros(float64(((i + r) % cfg.Nodes) * 11)))
					nd.Coll.Barrier(p, ports[i], gid)

					if i != 0 {
						// The root multicasts the allreduce result down the
						// tree; size a receive token for it before entering.
						ports[i].Provide(8 * cfg.Veclen)
					}
					sum := nd.Coll.Allreduce(p, ports[i], gid, collVec(r, i, cfg.Veclen), coll.OpSum)
					if !slices.Equal(sum, wantSum[r]) {
						nodeViol[i] = append(nodeViol[i], fmt.Sprintf(
							"node %d round %d: allreduce = %v, want %v", i, r, sum, wantSum[r]))
					}

					flat := nd.Coll.Allgather(p, ports[i], gid, collVec(r, i, cfg.Veclen))
					if !slices.Equal(flat, wantFlat[r]) {
						nodeViol[i] = append(nodeViol[i], fmt.Sprintf(
							"node %d round %d: allgather result corrupted", i, r))
					}
				}
				finish[i] = p.Now()
			})
		}
		c.RunUntil(cfg.Deadline)
		return maxTime(finish)
	}
	check := func(d metrics.Snapshot, _ *Result) []string {
		return append(flatten(nodeViol), CheckCollRun(c, ccfg, ports, d, cfg.Deadline)...)
	}
	return &traffic{root: c.Nodes[0].ID, run: run, check: check}, nil
}

// CheckCollRun evaluates the collective invariant set against a finished
// run: full-cluster quiescence, NIC/port resource return, the collective
// engine's own state (no unacked records, no armed retransmit timers, no
// open barrier/reduce/allgather instances), and fabric packet
// conservation. diff must be the run's metrics delta on a registry
// private to the run. Exported so other harnesses can hold collective
// workloads to the same bar.
func CheckCollRun(c *cluster.Cluster, ccfg *cluster.Config, ports []*gm.Port, diff metrics.Snapshot, deadline sim.Time) []string {
	return checkRun(c, ccfg, ports, diff, deadline, checkCollState(c), nil)
}

// checkCollState verifies every NIC's collective engine drained: stop-
// and-wait recovery must leave no unacked records, no armed timers, and
// no open collective instances behind.
func checkCollState(c *cluster.Cluster) []string {
	var v []string
	for i, n := range c.Nodes {
		if n.Coll == nil {
			continue
		}
		if s := n.Coll.DebugLeaks(); s != "" {
			v = append(v, fmt.Sprintf("node %d: leaked collective state: %s", i, s))
		}
		if r := n.Coll.Outstanding(); r != 0 {
			v = append(v, fmt.Sprintf("node %d: %d unacked collective records", i, r))
		}
		if t := n.Coll.PendingTimers(); t != 0 {
			v = append(v, fmt.Sprintf("node %d: %d collective retransmit timers still armed", i, t))
		}
	}
	return v
}
