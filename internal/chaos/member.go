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

// ChurnPlan derives the membership campaign's churn plan — msgs payloads
// of mean size bytes from a random root while transitions join/leave
// requests churn a nodes-sized group — from the seed alone, so a
// baseline and a faulted run churn identically and differ only in what
// the fabric does to them. The schedule explorer derives its plans here
// too, so schedule seed s explores the workload the campaign runs at
// seed s.
func ChurnPlan(nodes, transitions, msgs, size int, seed int64) (workload.ChurnPlan, error) {
	return workload.GenerateChurn(workload.ChurnSpec{
		Nodes:        nodes,
		Transitions:  transitions,
		Msgs:         msgs,
		MeanSize:     size,
		MeanGap:      15 * sim.Microsecond,
		MeanChurnGap: 60 * sim.Microsecond,
	}, sim.NewRNG(ScenarioSeed(seed, "member-plan")))
}

// memberSetup derives the churn plan; its run drives the plan through
// the membership subsystem and its check applies CheckMemberRun.
func memberSetup(c *cluster.Cluster, ccfg *cluster.Config, cfg Config) (*traffic, error) {
	plan, err := ChurnPlan(cfg.Nodes, cfg.Transitions, cfg.Msgs, cfg.Size, cfg.Seed)
	if err != nil {
		return nil, err
	}
	data := c.OpenPorts(Port)
	ctrl := c.OpenPorts(CtrlPort)
	var res *member.Result
	run := func() sim.Time {
		res = member.RunOn(c, member.Config{
			DataPort: Port,
			CtrlPort: CtrlPort,
			Fanout:   fanout,
			Deadline: cfg.Deadline,
		}, plan, data, ctrl)
		return res.Finish
	}
	check := func(d metrics.Snapshot, r *Result) []string {
		r.Epochs = len(res.Epochs)
		r.Rejected = res.Rejected
		return CheckMemberRun(c, ccfg, res, data, ctrl, d, cfg.Deadline)
	}
	return &traffic{root: fabric.NodeID(plan.Root), run: run, check: check}, nil
}

// CheckMemberRun evaluates the full membership invariant set against a
// finished run: the membership invariant itself (Result.Verify — every
// payload multicast in epoch E delivered exactly once, in order, to
// exactly E's members), cluster quiescence (no blocked procs, no leaked
// timers), NIC/port resource return on both the data and control ports,
// fabric packet conservation, and the delivery-derived packet census.
// diff must be the run's metrics delta (Snapshot().Diff(before)) on a
// registry private to the run. It is the checker the chaos campaigns
// apply after every scenario, exported so the schedule explorer can hold
// every permuted trace to exactly the same bar.
func CheckMemberRun(c *cluster.Cluster, ccfg *cluster.Config, res *member.Result, data, ctrl []*gm.Port, diff metrics.Snapshot, deadline sim.Time) []string {
	var ctrlViol []string
	for i, p := range ctrl {
		if got, want := p.FreeSendTokens(), ccfg.GM.SendTokens; got != want {
			ctrlViol = append(ctrlViol, fmt.Sprintf(
				"node %d: %d/%d control send tokens not returned", i, want-got, want))
		}
		if r := p.PendingRecvs(); r != 0 {
			ctrlViol = append(ctrlViol, fmt.Sprintf(
				"node %d: %d control deliveries never consumed", i, r))
		}
	}
	v := res.Verify()
	return append(v, checkRun(c, ccfg, data, diff, deadline, ctrlViol, memberCensus(diff, res, ccfg))...)
}

// memberCensus verifies the NICs accepted exactly the packets of the
// deliveries the membership ground truth prescribes — acked-as-dropped
// rejections must not leak into the accepted count.
func memberCensus(d metrics.Snapshot, res *member.Result, ccfg *cluster.Config) []string {
	if res.Finish == 0 {
		return nil // incomplete run: the packet census is meaningless
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
		return []string{fmt.Sprintf(
			"NICs accepted %d multicast packets, the recorded deliveries require exactly %d", got, want)}
	}
	return nil
}
