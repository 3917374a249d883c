package chaos

import (
	"repro/internal/gm"
	"repro/internal/sim"
)

// The scenario libraries, one per campaign. Fault windows are fractions
// of the fault-free baseline's measured span (Fault.At): the workload
// starts at t=0, so At(0.3)..At(1.5) always brackets live traffic and the
// early recovery tail, whether a run takes a millisecond on the Myrinet
// fabric or a fraction of that on a Clos backend. All windows close long
// before the run deadline, so a correct protocol always has room to
// recover; a run that still misses the deadline has a recovery bug, not
// a tight schedule.

// multicastLibrary returns the multicast scenario set.
func multicastLibrary() []Scenario {
	return []Scenario{
		{
			Name: "root-link-outage",
			Desc: "root's host link dark through most of the stream; every packet and ack in transit dies",
			Inject: func(f *Fault) {
				f.Inj.DropWindow("root-link", f.At(0.3), f.At(1.3),
					MatchHostLink(f.Root))
			},
		},
		{
			Name: "interior-kill",
			Desc: "interior forwarding node isolated through the second half of the stream; its whole subtree starves",
			Inject: func(f *Fault) {
				f.Inj.DropWindow("interior-node", f.At(0.3), f.At(1.5),
					MatchNode(f.InteriorNode()))
			},
		},
		{
			Name: "switch-outage",
			Desc: "the root's switch black mid-stream — a full-fabric blackout on single-switch clusters",
			Inject: func(f *Fault) {
				f.Inj.DropWindow("root-switch", f.At(0.4), f.At(1.2),
					MatchSwitch(f.RootSwitch()))
			},
		},
		{
			Name: "burst-loss",
			Desc: "Gilbert–Elliott bursty channel on all links (fixed-timeout recovery)",
			Inject: func(f *Fault) {
				f.Inj.GilbertElliott("ge-all", 0.02, 0.25, 0.001, 0.5, MatchAll)
			},
		},
		{
			Name:     "burst-loss-nacks",
			Desc:     "same bursty channel with nack fast recovery and adaptive RTO",
			Nacks:    true,
			Adaptive: true,
			Inject: func(f *Fault) {
				f.Inj.GilbertElliott("ge-all", 0.02, 0.25, 0.001, 0.5, MatchAll)
			},
		},
		{
			Name: "dup-storm",
			Desc: "every 3rd packet of any kind delivered twice for the whole run",
			Inject: func(f *Fault) {
				f.Inj.Duplicate("dup3", 0, 0, 3, MatchAll)
			},
		},
		{
			Name:  "reorder",
			Desc:  "every 5th data packet held back, overtaken by its successors",
			Nacks: true,
			Inject: func(f *Fault) {
				f.Inj.Reorder("hold5", 0, 0, 5, f.At(0.025), MatchData)
			},
		},
		{
			Name: "leaf-nic-pause",
			Desc: "a leaf NIC reloads firmware through the second half of the stream, discarding all arrivals",
			Inject: func(f *Fault) {
				leaf := f.LeafNode()
				f.Inj.PauseNIC(f.Cluster.Nodes[leaf].HW, f.At(0.3), f.At(1.5))
			},
		},
		{
			Name: "root-nic-pause",
			Desc: "the root NIC goes deaf mid-stream; every ack in flight is discarded",
			Inject: func(f *Fault) {
				f.Inj.PauseNIC(f.Cluster.Nodes[f.Root].HW, f.At(0.3), f.At(1.2))
			},
		},
		{
			Name: "ack-loss",
			Desc: "all acknowledgment and nack frames dropped through the stream's tail; data flows untouched",
			Inject: func(f *Fault) {
				f.Inj.DropWindow("acks", f.At(0.3), f.At(1.5), MatchAcks)
			},
		},
		{
			Name:  "cascade",
			Desc:  "interior node isolated while the fabric duplicates and reorders traffic",
			Nacks: true,
			Inject: func(f *Fault) {
				f.Inj.DropWindow("interior-node", f.At(0.4), f.At(1.1),
					MatchNode(f.InteriorNode()))
				f.Inj.Duplicate("dup7", 0, 0, 7, MatchAll)
				f.Inj.Reorder("hold9", 0, 0, 9, f.At(0.015), MatchData)
			},
		},
	}
}

// collLibrary returns the collective scenario set.
func collLibrary() []Scenario {
	return []Scenario{
		{
			Name: "coll-barrier-burst-loss",
			Desc: "every barrier round frame dropped for the first half of live traffic; the shared stop-and-wait timer must carry both barrier algorithms through",
			Inject: func(f *Fault) {
				f.Inj.DropWindow("barrier-burst", f.At(0.05), f.At(0.5),
					MatchKinds(gm.KindBarrier))
			},
		},
		{
			Name: "coll-reduce-dup-storm",
			Desc: "every 2nd reduce frame and reduce ack duplicated all run; the contribution bitsets and done-set must reject every copy during the combine",
			Inject: func(f *Fault) {
				f.Inj.Duplicate("reduce-dup", 0, 0, 2,
					MatchKinds(gm.KindReduce, gm.KindReduceAck))
			},
		},
		{
			Name: "coll-gather-burst-loss",
			Desc: "allgather chunk and ring hop frames dropped through the middle of the run; chunked batch transfers must resume where the ack left off",
			Inject: func(f *Fault) {
				f.Inj.DropWindow("gather-burst", f.At(0.2), f.At(0.7),
					MatchKinds(gm.KindGather, gm.KindRing))
			},
		},
		{
			Name: "coll-ack-loss",
			Desc: "collective acks of every class dropped early in the run; retransmitted rounds, vectors and chunks must be re-acked and deduplicated",
			Inject: func(f *Fault) {
				f.Inj.DropWindow("ack-loss", f.At(0.05), f.At(0.6), MatchCollAcks)
			},
		},
		{
			Name: "coll-root-pause",
			Desc: "the tree root's NIC goes deaf mid-run; contributions queued at the children must survive on stop-and-wait until the firmware returns",
			Inject: func(f *Fault) {
				f.Inj.PauseNIC(f.Cluster.Nodes[f.Root].HW, f.At(0.15), f.At(0.45))
			},
		},
		{
			Name: "coll-bursty-links",
			Desc: "Gilbert–Elliott bursty loss over collective data frames on all links, all run",
			Inject: func(f *Fault) {
				f.Inj.GilbertElliott("ge-coll", 0.02, 0.25, 0.001, 0.5, MatchCollData)
			},
		},
		{
			Name: "coll-dup-storm",
			Desc: "every 3rd packet of any kind duplicated all run; collective and multicast dedup must agree that nothing is delivered twice",
			Inject: func(f *Fault) {
				f.Inj.Duplicate("dup3", 0, 0, 3, MatchAll)
			},
		},
	}
}

// memberLibrary returns the membership scenario set. The group's tree
// changes every epoch, so there is no stable tree to aim at (Fault.Tree
// is nil) — faults target nodes, links, or the whole fabric.
func memberLibrary() []Scenario {
	return []Scenario{
		{
			Name: "churn-clean",
			Desc: "fault-free churn: the two-phase epoch roll alone must not disturb delivery",
		},
		{
			Name: "churn-under-loss",
			Desc: "Gilbert–Elliott bursty loss on all links while the group churns",
			Inject: func(f *Fault) {
				f.Inj.GilbertElliott("ge-all", 0.02, 0.25, 0.001, 0.5, MatchAll)
			},
		},
		{
			Name:     "churn-under-loss-nacks",
			Desc:     "same bursty channel with nack fast recovery and adaptive RTO",
			Nacks:    true,
			Adaptive: true,
			Inject: func(f *Fault) {
				f.Inj.GilbertElliott("ge-all", 0.02, 0.25, 0.001, 0.5, MatchAll)
			},
		},
		{
			Name: "churn-coordinator-outage",
			Desc: "the coordinator's NIC goes deaf for 700µs mid-churn; requests and phase replies must survive on GM's reliable unicast",
			Inject: func(f *Fault) {
				f.Inj.PauseNIC(f.Cluster.Nodes[f.Root].HW, 300*sim.Microsecond, sim.Millisecond)
			},
		},
		{
			Name: "churn-dup-storm",
			Desc: "every 3rd packet duplicated all run; stale and duplicate epoch traffic must be rejected, never delivered",
			Inject: func(f *Fault) {
				f.Inj.Duplicate("dup3", 0, 0, 3, MatchAll)
			},
		},
	}
}
