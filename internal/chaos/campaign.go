package chaos

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tree"
)

// The GM endpoints every campaign uses. Data, multicast and collective
// traffic share Port, the way internal/mpi multiplexes its port across
// communicators; the membership protocol runs on CtrlPort.
const (
	Port     gm.PortID = 1
	CtrlPort gm.PortID = 2

	// Group is the multicast campaign's static group.
	Group gm.GroupID = 1

	// CollGroupTree pairs the dissemination barrier with the
	// concatenate-and-forward tree allgather; CollGroupRing pairs the
	// binomial tree barrier with the ring allgather. Alternating rounds
	// between them puts every collective algorithm the engine implements
	// under fire in one campaign.
	CollGroupTree gm.GroupID = 1
	CollGroupRing gm.GroupID = 2
)

// fanout is the out-degree of every campaign's multicast trees: 2
// guarantees interior forwarding nodes from 4 nodes up.
const fanout = 2

// Campaign names the workload a scenario's faults hit.
type Campaign int

const (
	// Multicast streams Msgs messages of Size bytes from node 0 down a
	// static binary tree.
	Multicast Campaign = iota
	// Collective runs Rounds rounds of barrier + allreduce + allgather
	// over Veclen-element vectors on every node, alternating between the
	// tree-algorithm and ring-algorithm groups.
	Collective
	// Membership streams Msgs payloads of mean size Size while a churn
	// plan of Transitions join/leave requests rolls the group through
	// epochs.
	Membership
)

// Config parameterizes one scenario run. Zero fields get the campaign's
// defaults; each campaign reads only the workload fields its doc names.
type Config struct {
	Nodes       int
	Msgs        int
	Size        int
	Rounds      int
	Veclen      int
	Transitions int

	// Seed feeds the cluster RNG, the membership churn plan, and (hashed
	// with the scenario name) the injector RNG. Same seed, same scenario,
	// same result — always.
	Seed int64

	// Deadline bounds each run in virtual time; a protocol that has not
	// quiesced by then failed to recover.
	Deadline sim.Time

	// Metrics, when non-nil, also receives the faulted run's instrument
	// traffic (for -metrics reporting). The invariant checker always uses
	// a snapshot diff, so this is optional — but a shared registry is
	// unsynchronized, so it forces serial campaigns.
	Metrics *metrics.Registry

	// Shards runs each scenario's clusters on a conservative parallel
	// engine (0 or 1 = serial). Only stateless fault rules — unconditional
	// drop windows, every-packet reordering, NIC pauses — are compatible;
	// a stochastic scenario panics with fabric.ErrShardsStateful at
	// install time.
	Shards int

	// Fabric selects the interconnect backend the campaign runs over (the
	// zero value: the classic Myrinet fabric). The invariant set is
	// fabric-agnostic, so the same scenarios validate every backend.
	Fabric fabric.Config

	// AckEvery > 1 runs every scenario with the full ack economy enabled
	// (cumulative acks every AckEvery packets, piggybacking, tree ack
	// aggregation, windowed gather), proving the fault invariants hold
	// with coalescing on. 0 or 1 keeps the per-packet ack default.
	AckEvery int
}

// campaigns holds what differs between campaigns: the default workload
// shape, the scenario library, and the setup that installs the workload
// on a fresh cluster (an error means the cluster never became ready).
// Churn runs outlast static ones (every transition is a cluster-wide
// barrier), so the membership deadline is a full simulated second.
var campaigns = [...]struct {
	defaults Config
	library  func() []Scenario
	setup    func(c *cluster.Cluster, ccfg *cluster.Config, cfg Config) (*traffic, error)
}{
	Multicast: {Config{Nodes: 8, Msgs: 12, Size: 10000, Deadline: 500 * sim.Millisecond},
		multicastLibrary, multicastSetup},
	Collective: {Config{Nodes: 8, Rounds: 4, Veclen: 4, Deadline: 500 * sim.Millisecond},
		collLibrary, collSetup},
	Membership: {Config{Nodes: 8, Msgs: 20, Size: 4096, Transitions: 10, Deadline: sim.Second},
		memberLibrary, memberSetup},
}

func (c Config) withDefaults(k Campaign) Config {
	d := campaigns[k].defaults
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&c.Nodes, d.Nodes)
	def(&c.Msgs, d.Msgs)
	def(&c.Size, d.Size)
	def(&c.Rounds, d.Rounds)
	def(&c.Veclen, d.Veclen)
	def(&c.Transitions, d.Transitions)
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Deadline <= 0 {
		c.Deadline = d.Deadline
	}
	return c
}

// Scenario is one named fault script. Inject installs the faults; the
// runner supplies the cluster, the fault targets and a seeded injector
// through the Fault context. A nil Inject is a fault-free baseline.
type Scenario struct {
	Name     string
	Desc     string
	Campaign Campaign

	// Nacks/Adaptive select the recovery configuration under test (fast
	// recovery via nacks, RTT-adaptive timeouts).
	Nacks    bool
	Adaptive bool

	Inject func(f *Fault)
}

// Fault is the context a scenario's Inject runs in.
type Fault struct {
	Inj     *Injector
	Cluster *cluster.Cluster

	// Tree is the multicast campaign's static tree; nil for the
	// collective and membership campaigns, whose trees are not a stable
	// target (membership rebuilds its tree every epoch).
	Tree *tree.Tree
	// Root is the node rooting the campaign's traffic: the multicast
	// root, the root of both collective trees, or the membership
	// coordinator.
	Root fabric.NodeID
	Cfg  Config

	// CleanSpan is the fault-free baseline's completion time on this exact
	// cluster, measured by the run that always precedes fault injection.
	// Scenarios place their windows relative to it (see At), so the same
	// script stresses live traffic on a microsecond-scale Clos run and a
	// millisecond-scale Myrinet one alike.
	CleanSpan sim.Time
}

// At maps a fraction of the fault-free run's span to an absolute virtual
// time: At(0.3) lands 30% into live traffic on any fabric, At(1.5) in the
// recovery tail. Hard-coded microsecond windows tuned to one fabric's
// speed miss the whole run on a faster one.
func (f *Fault) At(frac float64) sim.Time {
	return sim.Time(float64(f.CleanSpan) * frac)
}

// InteriorNode returns the first non-root tree node that has children —
// the forwarding node whose failure hurts an entire subtree.
func (f *Fault) InteriorNode() fabric.NodeID {
	for _, n := range f.Tree.Nodes() {
		if n != f.Tree.Root && len(f.Tree.Children(n)) > 0 {
			return n
		}
	}
	// Degenerate tree (too small for interior nodes): fall back to the
	// last leaf so the scenario still exercises an outage.
	return f.LeafNode()
}

// RootSwitch returns the label of the switch the root attaches to — the
// fabric-generic spelling of "the crossbar goes dark" ("xbar0" on a
// single-switch Myrinet fabric, "tor0" or a leaf on a Clos), so
// switch-outage scenarios bite on every backend.
func (f *Fault) RootSwitch() string {
	return f.Cluster.Net.Iface(f.Root).Uplink().ToLabel()
}

// LeafNode returns the last tree node without children — deterministic,
// and never the root.
func (f *Fault) LeafNode() fabric.NodeID {
	nodes := f.Tree.Nodes()
	for i := len(nodes) - 1; i >= 0; i-- {
		if len(f.Tree.Children(nodes[i])) == 0 {
			return nodes[i]
		}
	}
	return nodes[len(nodes)-1]
}

// Library returns the campaign's scenario set, in fixed order. Campaigns
// run all of them unless filtered.
func Library(k Campaign) []Scenario {
	lib := campaigns[k].library()
	for i := range lib {
		lib[i].Campaign = k
	}
	return lib
}

// Find returns the campaign's library scenario with the given name.
func Find(k Campaign, name string) (Scenario, bool) {
	for _, sc := range Library(k) {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// Select resolves a comma-separated list of the campaign's scenario
// names, in list order; an empty list selects the whole library.
func Select(k Campaign, names string) ([]Scenario, error) {
	if names == "" {
		return Library(k), nil
	}
	noun := "scenario"
	if k == Collective {
		noun = "collective scenario"
	}
	var out []Scenario
	for _, name := range strings.Split(names, ",") {
		sc, ok := Find(k, strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown %s %q", noun, name)
		}
		out = append(out, sc)
	}
	return out, nil
}

// Result is one scenario's verdict: the invariant violations (empty on
// pass), recovery latency versus the fault-free baseline, and the fault
// and recovery traffic observed in the faulted run.
type Result struct {
	Scenario    string
	Desc        string
	Nodes       int
	Msgs        int
	Size        int
	Rounds      int
	Transitions int

	Pass       bool
	Violations []string

	// CleanFinish is the fault-free completion time, FaultFinish the
	// faulted one; Recovery is the difference — the time the fault cost.
	CleanFinish sim.Time
	FaultFinish sim.Time
	Recovery    sim.Time

	// Fabric drops and duplicates, NIC-paused discards and receive-buffer
	// overruns, and the protocol's recovery work. Retransmits sums every
	// reliability layer (collective stop-and-wait, multicast tree,
	// unicast); CollDups counts duplicate collective frames the engine
	// rejected.
	Drops       uint64
	Dups        uint64
	PausedDrops uint64
	RxNoBuffer  uint64
	Retransmits uint64
	Timeouts    uint64
	Nacks       uint64
	CollDups    uint64

	// Membership observations: committed epochs (including the finalize
	// transition), rejected requests, and the epoch filters' rejections.
	Epochs          int
	Rejected        int
	StaleEpochDrops uint64
	FutureDrops     uint64
	AckedAsDropped  uint64

	// Rules reports per-fault-rule activation counts.
	Rules []RuleHit
}

// Run executes one scenario of its campaign: a fault-free baseline run
// (for the recovery-latency reference) and the faulted run on an
// identically seeded cluster, both checked against the campaign's full
// invariant set.
func Run(sc Scenario, cfg Config) Result {
	cfg = cfg.withDefaults(sc.Campaign)
	clean := runOnce(sc, cfg, false, 0)
	res := runOnce(sc, cfg, true, clean.FaultFinish)

	res.Scenario, res.Desc = sc.Name, sc.Desc
	res.Nodes, res.Msgs, res.Size = cfg.Nodes, cfg.Msgs, cfg.Size
	res.Rounds, res.Transitions = cfg.Rounds, cfg.Transitions
	res.CleanFinish = clean.FaultFinish
	if res.FaultFinish > res.CleanFinish {
		res.Recovery = res.FaultFinish - res.CleanFinish
	}
	var viol []string
	for _, v := range clean.Violations {
		viol = append(viol, "baseline: "+v)
	}
	res.Violations = append(viol, res.Violations...)
	res.Pass = len(res.Violations) == 0
	return res
}

// traffic is one campaign's workload, installed on a fresh cluster by
// the campaign's setup function and ready to run.
type traffic struct {
	// tree and root are what the scenario's faults aim at (Fault.Tree,
	// Fault.Root).
	tree *tree.Tree
	root fabric.NodeID
	// run drives the workload to quiescence or the deadline and returns
	// its finish time.
	run func() sim.Time
	// check evaluates the campaign's invariant set on the finished run
	// against its metrics diff, recording campaign observations in res.
	check func(d metrics.Snapshot, res *Result) []string
}

// runOnce builds a fresh cluster, installs the campaign's workload and
// (if faulted) the scenario's faults, runs it, and checks the invariant
// set. The returned Result holds that one run's finish time, violations
// and counters.
func runOnce(sc Scenario, cfg Config, faulted bool, cleanSpan sim.Time) Result {
	// The baseline always uses a private registry; the faulted run uses
	// the caller's shared one when provided (counter diffs isolate it).
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
	cluster.WithAckEconomy(cfg.AckEvery)(ccfg)
	c := cluster.New(ccfg.Nodes, cluster.WithConfig(ccfg))
	defer c.Kill()

	var res Result
	t, err := campaigns[sc.Campaign].setup(c, ccfg, cfg)
	if err != nil {
		res.Violations = []string{err.Error()}
		return res
	}
	var inj *Injector
	if faulted && sc.Inject != nil {
		inj = NewInjector(c.Net, ScenarioSeed(cfg.Seed, sc.Name))
		sc.Inject(&Fault{Inj: inj, Cluster: c, Tree: t.tree, Root: t.root, Cfg: cfg, CleanSpan: cleanSpan})
	}

	before := reg.Snapshot()
	res.FaultFinish = t.run()
	d := reg.Snapshot().Diff(before)
	res.Violations = t.check(d, &res)
	res.Drops = d.CounterSum("net", "dropped")
	res.Dups = d.CounterSum("net", "duplicated")
	res.PausedDrops = d.CounterSum("lanai", "rx_paused_drops")
	res.RxNoBuffer = d.CounterSum("lanai", "rx_nobuffer")
	res.Retransmits = d.CounterSum("coll", "retransmits") +
		d.CounterSum("core", "retransmits") + d.CounterSum("gm", "retransmits")
	res.Timeouts = d.CounterSum("core", "timeouts") + d.CounterSum("gm", "timeouts")
	res.Nacks = d.CounterSum("core", "mcast_nacks_sent") + d.CounterSum("gm", "nacks_sent")
	res.CollDups = d.CounterSum("coll", "duplicates")
	res.StaleEpochDrops = d.CounterSum("core", "stale_epoch_drops")
	res.FutureDrops = d.CounterSum("core", "future_epoch_drops")
	res.AckedAsDropped = d.CounterSum("core", "acked_as_dropped")
	if inj != nil {
		res.Rules = inj.RuleHits()
	}
	return res
}

// ScenarioSeed mixes a campaign seed with an FNV-1a hash of a name, the
// derivation every chaos run uses to give each scenario (and the churn
// plan) an independent but reproducible random stream. Exported for the
// schedule explorer, which derives its fault seeds the same way.
func ScenarioSeed(seed int64, name string) int64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return seed ^ int64(h&0x7fffffffffffffff)
}

// checkRun evaluates the invariant set every campaign shares, in report
// order: quiescence by the deadline, NIC and port resource return on
// ports, the campaign's own drained-state violations, fabric packet
// conservation, then the campaign's accepted-packet census. d must be the
// run's metrics delta.
func checkRun(c *cluster.Cluster, ccfg *cluster.Config, ports []*gm.Port, d metrics.Snapshot, deadline sim.Time, state, census []string) []string {
	v := checkQuiescence(c, deadline)
	v = append(v, checkResources(c, ports, ccfg)...)
	v = append(v, state...)
	injected := d.CounterSum("net", "injected")
	duplicated := d.CounterSum("net", "duplicated")
	delivered := d.CounterSum("net", "delivered")
	dropped := d.CounterSum("net", "dropped")
	if injected+duplicated != delivered+dropped {
		v = append(v, fmt.Sprintf(
			"fabric accounting broken: injected %d + duplicated %d != delivered %d + dropped %d",
			injected, duplicated, delivered, dropped))
	}
	return append(v, census...)
}

// checkQuiescence verifies the run fully drained before the deadline: no
// process still blocked (a starved receiver means a lost message; a stuck
// root means send tokens never came back) and no event still scheduled (an
// armed retransmit timer past quiescence means a leaked send record).
func checkQuiescence(c *cluster.Cluster, deadline sim.Time) []string {
	var v []string
	if n := c.LiveProcs(); n != 0 {
		v = append(v, fmt.Sprintf(
			"did not recover by deadline %v: %d processes still blocked", deadline, n))
	}
	if n := c.Pending(); n != 0 {
		v = append(v, fmt.Sprintf(
			"%d events still scheduled after quiescence (leaked timer or unfinished recovery)", n))
	}
	return v
}

// checkResources verifies every NIC-level resource returned to its idle
// state: all send records retired, all retransmit timers disarmed, all
// lanai packet buffers back in their pools, and every host-level send
// token returned.
func checkResources(c *cluster.Cluster, ports []*gm.Port, ccfg *cluster.Config) []string {
	var v []string
	for i, n := range c.Nodes {
		if r := n.NIC.OutstandingRecords(); r != 0 {
			v = append(v, fmt.Sprintf("node %d: %d unicast send records leaked", i, r))
		}
		if t := n.NIC.PendingRetransmitTimers(); t != 0 {
			v = append(v, fmt.Sprintf("node %d: %d unicast retransmit timers still armed", i, t))
		}
		if t := n.NIC.PendingAckTimers(); t != 0 {
			v = append(v, fmt.Sprintf("node %d: %d delayed-ack timers still armed (coalesced ack leaked)", i, t))
		}
		if n.Ext != nil {
			if r := n.Ext.OutstandingRecords(); r != 0 {
				v = append(v, fmt.Sprintf("node %d: %d multicast send records leaked", i, r))
			}
			if t := n.Ext.PendingGroupTimers(); t != 0 {
				v = append(v, fmt.Sprintf("node %d: %d group retransmit timers still armed", i, t))
			}
			if t := n.Ext.PendingAckTimers(); t != 0 {
				v = append(v, fmt.Sprintf("node %d: %d aggregate-ack timers still armed (coalesced ack leaked)", i, t))
			}
		}
		if free, cap := n.HW.SendBufs.Free(), n.HW.SendBufs.Cap(); free != cap {
			v = append(v, fmt.Sprintf("node %d: %d/%d NIC send buffers leaked", i, cap-free, cap))
		}
		if free, cap := n.HW.RecvBufs.Free(), n.HW.RecvBufs.Cap(); free != cap {
			v = append(v, fmt.Sprintf("node %d: %d/%d NIC recv buffers leaked", i, cap-free, cap))
		}
		if q := n.HW.SendBufs.Queued() + n.HW.RecvBufs.Queued(); q != 0 {
			v = append(v, fmt.Sprintf("node %d: %d buffer waiters still queued", i, q))
		}
		if n.HW.Paused() {
			v = append(v, fmt.Sprintf("node %d: NIC still paused after run", i))
		}
		if got, want := ports[i].FreeSendTokens(), ccfg.GM.SendTokens; got != want {
			v = append(v, fmt.Sprintf("node %d: %d/%d send tokens not returned", i, want-got, want))
		}
		if r := ports[i].PendingRecvs(); r != 0 {
			v = append(v, fmt.Sprintf("node %d: %d extra deliveries queued (duplicate accepted?)", i, r))
		}
	}
	return v
}
