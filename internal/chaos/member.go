package chaos

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/member"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The GM endpoints membership campaigns use: data on one port, the
// membership protocol on another.
const (
	MemberDataPort gm.PortID = 1
	MemberCtrlPort gm.PortID = 2
)

// MemberConfig parameterizes one membership scenario run.
type MemberConfig struct {
	// Nodes is the cluster size; Msgs multicasts of Size bytes stream from
	// the root while Transitions join/leave requests churn the group.
	Nodes       int
	Msgs        int
	Size        int
	Transitions int
	Fanout      int

	// Seed feeds the cluster RNG, the churn-plan RNG, and (hashed with the
	// scenario name) the fault injector — same seed, same everything.
	Seed int64

	// Deadline bounds each run in virtual time. Churn runs outlast static
	// ones (every transition is a cluster-wide barrier), so the default is
	// a full simulated second.
	Deadline sim.Time

	// Metrics optionally receives the faulted run's instrument traffic.
	// The checks always use a private snapshot diff; a shared registry is
	// unsynchronized and forces serial campaigns.
	Metrics *metrics.Registry

	// Shards runs each scenario's clusters on a conservative parallel
	// engine (0 or 1 = serial); stateless fault rules only, as with
	// Config.Shards.
	Shards int

	// Fabric selects the interconnect backend (zero value: Myrinet), as
	// with Config.Fabric.
	Fabric fabric.Config
}

func (c MemberConfig) withDefaults() MemberConfig {
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.Msgs <= 0 {
		c.Msgs = 20
	}
	if c.Size <= 0 {
		c.Size = 4096
	}
	if c.Transitions <= 0 {
		// The ISSUE's floor: at least 8 membership transitions under fire.
		c.Transitions = 10
	}
	if c.Fanout <= 0 {
		c.Fanout = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Deadline <= 0 {
		c.Deadline = sim.Second
	}
	return c
}

// MemberScenario is one named fault script for a membership run.
type MemberScenario struct {
	Name string
	Desc string

	Nacks    bool
	Adaptive bool

	Inject func(f *MemberFault)
}

// MemberFault is the context a membership scenario's Inject runs in. The
// group's tree changes every epoch, so unlike Fault there is no stable
// tree to aim at — faults target nodes, links, or the whole fabric.
type MemberFault struct {
	Inj     *Injector
	Cluster *cluster.Cluster
	Cfg     MemberConfig
	Root    fabric.NodeID
}

// MemberLibrary returns the membership scenario set, in fixed order.
func MemberLibrary() []MemberScenario {
	return []MemberScenario{
		{
			Name: "churn-clean",
			Desc: "fault-free churn: the two-phase epoch roll alone must not disturb delivery",
		},
		{
			Name: "churn-under-loss",
			Desc: "Gilbert–Elliott bursty loss on all links while the group churns",
			Inject: func(f *MemberFault) {
				f.Inj.GilbertElliott("ge-all", 0.02, 0.25, 0.001, 0.5, MatchAll)
			},
		},
		{
			Name:     "churn-under-loss-nacks",
			Desc:     "same bursty channel with nack fast recovery and adaptive RTO",
			Nacks:    true,
			Adaptive: true,
			Inject: func(f *MemberFault) {
				f.Inj.GilbertElliott("ge-all", 0.02, 0.25, 0.001, 0.5, MatchAll)
			},
		},
		{
			Name: "churn-coordinator-outage",
			Desc: "the coordinator's NIC goes deaf for 700µs mid-churn; requests and phase replies must survive on GM's reliable unicast",
			Inject: func(f *MemberFault) {
				f.Inj.PauseNIC(f.Cluster.Nodes[f.Root].HW, 300*sim.Microsecond, sim.Millisecond)
			},
		},
		{
			Name: "churn-dup-storm",
			Desc: "every 3rd packet duplicated all run; stale and duplicate epoch traffic must be rejected, never delivered",
			Inject: func(f *MemberFault) {
				f.Inj.Duplicate("dup3", 0, 0, 3, MatchAll)
			},
		},
	}
}

// FindMember returns the membership scenario with the given name.
func FindMember(name string) (MemberScenario, bool) {
	for _, sc := range MemberLibrary() {
		if sc.Name == name {
			return sc, true
		}
	}
	return MemberScenario{}, false
}

// MemberResult is one membership scenario's verdict.
type MemberResult struct {
	Scenario    string
	Desc        string
	Nodes       int
	Msgs        int
	Transitions int

	Pass       bool
	Violations []string

	CleanFinish sim.Time
	FaultFinish sim.Time
	Recovery    sim.Time

	// Faulted-run observations: committed epochs (including the finalize
	// transition), rejected requests, and the epoch machinery's traffic.
	Epochs          int
	Rejected        int
	Drops           uint64
	Dups            uint64
	Retransmits     uint64
	Timeouts        uint64
	Nacks           uint64
	StaleEpochDrops uint64
	FutureDrops     uint64
	AckedAsDropped  uint64

	Rules []RuleHit
}

// RunMemberScenario executes one membership scenario: a fault-free
// baseline and the faulted run, both checked against the membership
// invariant (every payload multicast in epoch E delivered exactly once,
// in order, to exactly E's members) plus the full-stack quiescence,
// resource, and accounting invariants.
func RunMemberScenario(sc MemberScenario, cfg MemberConfig) MemberResult {
	cfg = cfg.withDefaults()
	clean := memberRunOnce(sc, cfg, false)
	fault := memberRunOnce(sc, cfg, true)

	res := MemberResult{
		Scenario:        sc.Name,
		Desc:            sc.Desc,
		Nodes:           cfg.Nodes,
		Msgs:            cfg.Msgs,
		Transitions:     cfg.Transitions,
		CleanFinish:     clean.finish,
		FaultFinish:     fault.finish,
		Epochs:          fault.epochs,
		Rejected:        fault.rejected,
		Drops:           fault.drops,
		Dups:            fault.dups,
		Retransmits:     fault.retransmits,
		Timeouts:        fault.timeouts,
		Nacks:           fault.nacks,
		StaleEpochDrops: fault.staleDrops,
		FutureDrops:     fault.futureDrops,
		AckedAsDropped:  fault.ackedDropped,
		Rules:           fault.rules,
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

// memberOutcome is one membership run's raw observations.
type memberOutcome struct {
	finish     sim.Time
	violations []string

	epochs, rejected                      int
	drops, dups                           uint64
	retransmits, timeouts, nacks          uint64
	staleDrops, futureDrops, ackedDropped uint64
	rules                                 []RuleHit
}

// memberRunOnce builds a fresh cluster, drives a churn plan through the
// membership subsystem under the scenario's faults, and checks every
// invariant.
func memberRunOnce(sc MemberScenario, cfg MemberConfig, faulted bool) memberOutcome {
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
	ccfg.GM.EnableNacks = sc.Nacks
	ccfg.GM.AdaptiveRTO = sc.Adaptive
	c := cluster.New(ccfg.Nodes, cluster.WithConfig(ccfg))

	// The plan derives from the seed alone, so baseline and faulted runs
	// churn identically and differ only in what the fabric does to them.
	plan, err := workload.GenerateChurn(workload.ChurnSpec{
		Nodes:        cfg.Nodes,
		Transitions:  cfg.Transitions,
		Msgs:         cfg.Msgs,
		MeanSize:     cfg.Size,
		MeanGap:      15 * sim.Microsecond,
		MeanChurnGap: 60 * sim.Microsecond,
	}, sim.NewRNG(scenarioSeed(cfg.Seed, "member-plan")))
	if err != nil {
		return memberOutcome{violations: []string{err.Error()}}
	}

	var inj *Injector
	if faulted && sc.Inject != nil {
		inj = NewInjector(c.Net, scenarioSeed(cfg.Seed, sc.Name))
		sc.Inject(&MemberFault{Inj: inj, Cluster: c, Cfg: cfg, Root: fabric.NodeID(plan.Root)})
	}

	data := c.OpenPorts(MemberDataPort)
	ctrl := c.OpenPorts(MemberCtrlPort)
	before := reg.Snapshot()
	res := member.RunOn(c, member.Config{
		DataPort: MemberDataPort,
		CtrlPort: MemberCtrlPort,
		Fanout:   cfg.Fanout,
		Deadline: cfg.Deadline,
	}, plan, data, ctrl)

	var out memberOutcome
	out.finish = res.Finish
	out.epochs = len(res.Epochs)
	out.rejected = res.Rejected
	d := reg.Snapshot().Diff(before)
	out.violations = append(out.violations, CheckMemberRun(c, ccfg, res, data, ctrl, d, cfg.Deadline)...)
	out.drops = d.CounterSum("net", "dropped")
	out.dups = d.CounterSum("net", "duplicated")
	out.retransmits = d.CounterSum("core", "retransmits") + d.CounterSum("gm", "retransmits")
	out.timeouts = d.CounterSum("core", "timeouts") + d.CounterSum("gm", "timeouts")
	out.nacks = d.CounterSum("core", "mcast_nacks_sent") + d.CounterSum("gm", "nacks_sent")
	out.staleDrops = d.CounterSum("core", "stale_epoch_drops")
	out.futureDrops = d.CounterSum("core", "future_epoch_drops")
	out.ackedDropped = d.CounterSum("core", "acked_as_dropped")
	if inj != nil {
		out.rules = inj.RuleHits()
	}

	c.Kill()
	return out
}

// CheckMemberRun evaluates the full membership invariant set against a
// finished run: the membership invariant itself (Result.Verify — every
// payload multicast in epoch E delivered exactly once, in order, to
// exactly E's members), cluster quiescence (no blocked procs, no leaked
// timers), NIC/port resource return on both the data and control ports,
// and the delivery-derived packet-accounting census. diff must be the
// run's metrics delta (Snapshot().Diff(before)) on a registry private to
// the run. It is the checker the chaos campaigns apply after every
// scenario, exported so the schedule explorer can hold every permuted
// trace to exactly the same bar.
func CheckMemberRun(c *cluster.Cluster, ccfg *cluster.Config, res *member.Result, data, ctrl []*gm.Port, diff metrics.Snapshot, deadline sim.Time) []string {
	var v []string
	v = append(v, res.Verify()...)
	v = append(v, checkQuiescence(c, Config{Deadline: deadline})...)
	v = append(v, checkResources(c, data, ccfg)...)
	for i, p := range ctrl {
		if got, want := p.FreeSendTokens(), ccfg.GM.SendTokens; got != want {
			v = append(v, fmt.Sprintf(
				"node %d: %d/%d control send tokens not returned", i, want-got, want))
		}
		if r := p.PendingRecvs(); r != 0 {
			v = append(v, fmt.Sprintf(
				"node %d: %d control deliveries never consumed", i, r))
		}
	}
	v = append(v, checkMemberAccounting(diff, res, ccfg)...)
	return v
}

// ScenarioSeed mixes a campaign seed with a scenario name (FNV-1a), the
// derivation every chaos run uses to give each scenario an independent
// but reproducible fault stream. Exported for the schedule explorer,
// which derives its churn-plan and fault seeds the same way.
func ScenarioSeed(seed int64, name string) int64 { return scenarioSeed(seed, name) }

// checkMemberAccounting verifies the fabric conserved packets and that
// the NICs accepted exactly the packets of the deliveries the membership
// ground truth prescribes — acked-as-dropped rejections must not leak
// into the accepted count.
func checkMemberAccounting(d metrics.Snapshot, res *member.Result, ccfg *cluster.Config) []string {
	var v []string
	injected := d.CounterSum("net", "injected")
	duplicated := d.CounterSum("net", "duplicated")
	delivered := d.CounterSum("net", "delivered")
	dropped := d.CounterSum("net", "dropped")
	if injected+duplicated != delivered+dropped {
		v = append(v, fmt.Sprintf(
			"fabric accounting broken: injected %d + duplicated %d != delivered %d + dropped %d",
			injected, duplicated, delivered, dropped))
	}
	if res.Finish == 0 {
		return v // incomplete run: the packet census is meaningless
	}
	var want uint64
	for _, ds := range res.Deliveries {
		for _, del := range ds {
			size := member.SentinelSize
			if int(del.Idx) < len(res.SendSize) {
				size = res.SendSize[del.Idx]
			}
			want += uint64(ccfg.GM.Packets(size))
		}
	}
	if got := d.CounterSum("core", "mcast_received"); got != want {
		v = append(v, fmt.Sprintf(
			"NICs accepted %d multicast packets, the recorded deliveries require exactly %d", got, want))
	}
	return v
}
