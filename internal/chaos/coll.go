package chaos

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tree"
)

// The GM endpoints collective campaigns use. Both collective contexts
// share one port, the way internal/mpi multiplexes its port across
// communicators.
const (
	CollPort gm.PortID = 1

	// CollGroupTree pairs the dissemination barrier with the
	// concatenate-and-forward tree allgather; CollGroupRing pairs the
	// binomial tree barrier with the ring allgather. Alternating rounds
	// between them puts every collective algorithm the engine implements
	// under fire in one campaign.
	CollGroupTree gm.GroupID = 1
	CollGroupRing gm.GroupID = 2
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

// CollConfig parameterizes one collective scenario run.
type CollConfig struct {
	// Nodes is the cluster size; every node runs Rounds rounds of
	// barrier + allreduce + allgather over Veclen-element vectors,
	// alternating between the tree-algorithm and ring-algorithm groups.
	Nodes  int
	Rounds int
	Veclen int

	// Seed feeds the cluster RNG and (hashed with the scenario name) the
	// injector RNG — same seed, same scenario, same result.
	Seed int64

	// Deadline bounds each run in virtual time; collectives that have not
	// quiesced by then failed to recover.
	Deadline sim.Time

	// Metrics optionally receives the faulted run's instrument traffic.
	// The checks always use a private snapshot diff.
	Metrics *metrics.Registry

	// Shards runs each scenario's clusters on a conservative parallel
	// engine (0 or 1 = serial); stateless fault rules only, as with
	// Config.Shards.
	Shards int

	// Fabric selects the interconnect backend (zero value: Myrinet).
	Fabric fabric.Config

	// AckEvery > 1 runs every scenario with the full ack economy enabled
	// (cumulative acks, piggybacking, tree aggregation, windowed gather);
	// 0 or 1 keeps the per-packet ack default.
	AckEvery int
}

func (c CollConfig) withDefaults() CollConfig {
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.Rounds <= 0 {
		c.Rounds = 4
	}
	if c.Veclen <= 0 {
		c.Veclen = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Deadline <= 0 {
		c.Deadline = 500 * sim.Millisecond
	}
	return c
}

// CollScenario is one named fault script for a collective run.
type CollScenario struct {
	Name string
	Desc string

	Inject func(f *CollFault)
}

// CollFault is the context a collective scenario's Inject runs in.
type CollFault struct {
	Inj     *Injector
	Cluster *cluster.Cluster
	Cfg     CollConfig

	// CleanSpan is the fault-free baseline's completion time on this
	// exact cluster; windows are placed relative to it via At, as in the
	// multicast campaigns.
	CleanSpan sim.Time
}

// At maps a fraction of the fault-free run's span to an absolute virtual
// time (see Fault.At).
func (f *CollFault) At(frac float64) sim.Time {
	return sim.Time(float64(f.CleanSpan) * frac)
}

// Root returns the node rooting both collective trees (the lowest member
// id) — the node whose outage every tree collective must survive.
func (f *CollFault) Root() fabric.NodeID {
	return f.Cluster.Nodes[0].ID
}

// CollLibrary returns the collective scenario set, in fixed order.
func CollLibrary() []CollScenario {
	return []CollScenario{
		{
			Name: "coll-barrier-burst-loss",
			Desc: "every barrier round frame dropped for the first half of live traffic; the shared stop-and-wait timer must carry both barrier algorithms through",
			Inject: func(f *CollFault) {
				f.Inj.DropWindow("barrier-burst", f.At(0.05), f.At(0.5),
					MatchKinds(gm.KindBarrier))
			},
		},
		{
			Name: "coll-reduce-dup-storm",
			Desc: "every 2nd reduce frame and reduce ack duplicated all run; the contribution bitsets and done-set must reject every copy during the combine",
			Inject: func(f *CollFault) {
				f.Inj.Duplicate("reduce-dup", 0, 0, 2,
					MatchKinds(gm.KindReduce, gm.KindReduceAck))
			},
		},
		{
			Name: "coll-gather-burst-loss",
			Desc: "allgather chunk and ring hop frames dropped through the middle of the run; chunked batch transfers must resume where the ack left off",
			Inject: func(f *CollFault) {
				f.Inj.DropWindow("gather-burst", f.At(0.2), f.At(0.7),
					MatchKinds(gm.KindGather, gm.KindRing))
			},
		},
		{
			Name: "coll-ack-loss",
			Desc: "collective acks of every class dropped early in the run; retransmitted rounds, vectors and chunks must be re-acked and deduplicated",
			Inject: func(f *CollFault) {
				f.Inj.DropWindow("ack-loss", f.At(0.05), f.At(0.6), MatchCollAcks)
			},
		},
		{
			Name: "coll-root-pause",
			Desc: "the tree root's NIC goes deaf mid-run; contributions queued at the children must survive on stop-and-wait until the firmware returns",
			Inject: func(f *CollFault) {
				f.Inj.PauseNIC(f.Cluster.Nodes[f.Root()].HW, f.At(0.15), f.At(0.45))
			},
		},
		{
			Name: "coll-bursty-links",
			Desc: "Gilbert–Elliott bursty loss over collective data frames on all links, all run",
			Inject: func(f *CollFault) {
				f.Inj.GilbertElliott("ge-coll", 0.02, 0.25, 0.001, 0.5, MatchCollData)
			},
		},
		{
			Name: "coll-dup-storm",
			Desc: "every 3rd packet of any kind duplicated all run; collective and multicast dedup must agree that nothing is delivered twice",
			Inject: func(f *CollFault) {
				f.Inj.Duplicate("dup3", 0, 0, 3, MatchAll)
			},
		},
	}
}

// FindColl returns the collective scenario with the given name.
func FindColl(name string) (CollScenario, bool) {
	for _, sc := range CollLibrary() {
		if sc.Name == name {
			return sc, true
		}
	}
	return CollScenario{}, false
}

// CollResult is one collective scenario's verdict.
type CollResult struct {
	Scenario string
	Desc     string
	Nodes    int
	Rounds   int

	Pass       bool
	Violations []string

	CleanFinish sim.Time
	FaultFinish sim.Time
	Recovery    sim.Time

	// Faulted-run observations. Retransmits sums every reliability layer
	// (collective stop-and-wait, multicast tree, unicast); CollDups counts
	// duplicate collective frames the engine rejected.
	Drops       uint64
	Dups        uint64
	PausedDrops uint64
	Retransmits uint64
	CollDups    uint64

	Rules []RuleHit
}

// RunCollScenario executes one collective scenario: a fault-free baseline
// and the faulted run, both checked against the collective invariant set
// (correct results at every node every round, full quiescence, no leaked
// collective records, timers or instances, all NIC resources returned,
// balanced fabric accounting).
func RunCollScenario(sc CollScenario, cfg CollConfig) CollResult {
	cfg = cfg.withDefaults()
	clean := collRunOnce(sc, cfg, false, 0)
	fault := collRunOnce(sc, cfg, true, clean.finish)

	res := CollResult{
		Scenario:    sc.Name,
		Desc:        sc.Desc,
		Nodes:       cfg.Nodes,
		Rounds:      cfg.Rounds,
		CleanFinish: clean.finish,
		FaultFinish: fault.finish,
		Drops:       fault.drops,
		Dups:        fault.dups,
		PausedDrops: fault.pausedDrops,
		Retransmits: fault.retransmits,
		CollDups:    fault.collDups,
		Rules:       fault.rules,
	}
	if res.FaultFinish > res.CleanFinish {
		res.Recovery = res.FaultFinish - res.CleanFinish
	}
	for _, v := range clean.violations {
		res.Violations = append(res.Violations, "baseline: "+v)
	}
	res.Violations = append(res.Violations, fault.violations...)
	res.Pass = len(res.Violations) == 0
	return res
}

// collOutcome is one collective run's raw observations.
type collOutcome struct {
	finish     sim.Time
	violations []string

	drops, dups, pausedDrops uint64
	retransmits, collDups    uint64
	rules                    []RuleHit
}

// collVec is the deterministic contribution of node i in round r.
func collVec(r, i, veclen int) []int64 {
	v := make([]int64, veclen)
	for j := range v {
		v[j] = int64(1000*r + 100*i + j)
	}
	return v
}

// collRunOnce builds a fresh cluster with both collective contexts
// installed, drives the alternating-group collective workload under the
// scenario's faults, and checks every invariant.
func collRunOnce(sc CollScenario, cfg CollConfig, faulted bool, cleanSpan sim.Time) collOutcome {
	reg := cfg.Metrics
	if reg == nil || !faulted {
		reg = metrics.New()
	}
	ccfg := cluster.DefaultConfig(cfg.Nodes)
	if cfg.Fabric.Valid() {
		ccfg.Fabric = cfg.Fabric
		ccfg.Link = cfg.Fabric.Links
	}
	ccfg.Seed = cfg.Seed
	ccfg.Metrics = reg
	ccfg.Shards = cfg.Shards
	cluster.WithAckEconomy(cfg.AckEvery)(ccfg)
	c := cluster.New(ccfg.Nodes, cluster.WithConfig(ccfg))
	ports := c.OpenPorts(CollPort)

	// Both groups need the multicast tree (reduce/allgather neighborhoods
	// and the downward result multicasts) alongside the collective entry.
	c.InstallGroup(CollGroupTree, tree.Binomial(0, c.Members()), CollPort, CollPort)
	c.InstallGroup(CollGroupRing, tree.Binomial(0, c.Members()), CollPort, CollPort)
	readyTree := c.InstallCollGroup(CollGroupTree, c.Members(), CollPort)
	readyRing := c.InstallCollGroup(CollGroupRing, c.Members(), CollPort,
		coll.WithBarrierAlgo(coll.BarrierTree), coll.WithGatherAlgo(coll.GatherRing))
	c.Run() // settle both group tables before traffic and fault windows
	var out collOutcome
	if !readyTree() || !readyRing() {
		out.violations = append(out.violations, "collective group installation did not settle")
		c.Kill()
		return out
	}

	var inj *Injector
	if faulted && sc.Inject != nil {
		inj = NewInjector(c.Net, scenarioSeed(cfg.Seed, sc.Name))
		sc.Inject(&CollFault{Inj: inj, Cluster: c, Cfg: cfg, CleanSpan: cleanSpan})
	}

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

	nodeViol := make([][]string, cfg.Nodes)
	finish := make([]sim.Time, cfg.Nodes)
	before := reg.Snapshot()
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
				if !vecEqual(sum, wantSum[r]) {
					nodeViol[i] = append(nodeViol[i], fmt.Sprintf(
						"node %d round %d: allreduce = %v, want %v", i, r, sum, wantSum[r]))
				}

				flat := nd.Coll.Allgather(p, ports[i], gid, collVec(r, i, cfg.Veclen))
				if !vecEqual(flat, wantFlat[r]) {
					nodeViol[i] = append(nodeViol[i], fmt.Sprintf(
						"node %d round %d: allgather result corrupted", i, r))
				}
			}
			finish[i] = p.Now()
		})
	}
	c.RunUntil(cfg.Deadline)

	for _, t := range finish {
		if t > out.finish {
			out.finish = t
		}
	}
	for _, vs := range nodeViol {
		out.violations = append(out.violations, vs...)
	}
	d := reg.Snapshot().Diff(before)
	out.violations = append(out.violations, CheckCollRun(c, ccfg, ports, d, cfg.Deadline)...)
	out.drops = d.CounterSum("net", "dropped")
	out.dups = d.CounterSum("net", "duplicated")
	out.pausedDrops = d.CounterSum("lanai", "rx_paused_drops")
	out.retransmits = d.CounterSum("coll", "retransmits") +
		d.CounterSum("core", "retransmits") + d.CounterSum("gm", "retransmits")
	out.collDups = d.CounterSum("coll", "duplicates")
	if inj != nil {
		out.rules = inj.RuleHits()
	}

	c.Kill()
	return out
}

func vecEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CheckCollRun evaluates the collective invariant set against a finished
// run: full-cluster quiescence, NIC/port resource return, the collective
// engine's own state (no unacked records, no armed retransmit timers, no
// open barrier/reduce/allgather instances), and fabric packet
// conservation. diff must be the run's metrics delta on a registry
// private to the run. Exported so other harnesses can hold collective
// workloads to the same bar.
func CheckCollRun(c *cluster.Cluster, ccfg *cluster.Config, ports []*gm.Port, diff metrics.Snapshot, deadline sim.Time) []string {
	var v []string
	v = append(v, checkQuiescence(c, Config{Deadline: deadline})...)
	v = append(v, checkResources(c, ports, ccfg)...)
	v = append(v, checkCollState(c)...)
	injected := diff.CounterSum("net", "injected")
	duplicated := diff.CounterSum("net", "duplicated")
	delivered := diff.CounterSum("net", "delivered")
	dropped := diff.CounterSum("net", "dropped")
	if injected+duplicated != delivered+dropped {
		v = append(v, fmt.Sprintf(
			"fabric accounting broken: injected %d + duplicated %d != delivered %d + dropped %d",
			injected, duplicated, delivered, dropped))
	}
	return v
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
