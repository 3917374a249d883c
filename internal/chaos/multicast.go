package chaos

import (
	"bytes"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Payload builds the deterministic byte pattern of message idx — receivers
// recompute it to verify every byte arrived intact and in the right
// message slot.
func Payload(idx, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(idx*131 + i*29 + 7)
	}
	return b
}

// multicastSetup installs the multicast campaign's static group: node 0
// streams cfg.Msgs messages of cfg.Size bytes down a binary tree, every
// receiver checks each delivery's id and bytes, and the NICs must accept
// exactly the workload's packet count.
func multicastSetup(c *cluster.Cluster, ccfg *cluster.Config, cfg Config) (*traffic, error) {
	ports := c.OpenPorts(Port)
	tr := tree.KAry(0, c.Members(), fanout)
	c.InstallGroup(Group, tr, Port, Port)

	// Per-node violation lists, merged in node order after the run so the
	// report is deterministic regardless of event interleaving.
	nodeViol := make([][]string, cfg.Nodes)
	run := func() sim.Time {
		msgs := make([][]byte, cfg.Msgs)
		for i := range msgs {
			msgs[i] = Payload(i, cfg.Size)
		}
		finish := make([]sim.Time, cfg.Nodes)
		for _, n := range tr.Nodes() {
			if n == tr.Root {
				continue
			}
			n := n
			c.SpawnOn(n, "chaos-recv", func(p *sim.Proc) {
				ports[n].ProvideN(cfg.Msgs, cfg.Size)
				for i := 0; i < cfg.Msgs; i++ {
					ev := ports[n].Recv(p)
					if ev.MsgID != uint64(i+1) {
						nodeViol[n] = append(nodeViol[n], fmt.Sprintf(
							"node %d: delivery %d carried msg id %d — lost, duplicated, or reordered message",
							n, i+1, ev.MsgID))
					} else if !bytes.Equal(ev.Data, msgs[i]) {
						nodeViol[n] = append(nodeViol[n], fmt.Sprintf(
							"node %d: msg %d payload corrupted", n, i+1))
					}
				}
				finish[n] = p.Now()
			})
		}
		c.SpawnOn(tr.Root, "chaos-root", func(p *sim.Proc) {
			ext := c.Nodes[0].Ext
			for i := 0; i < cfg.Msgs; i++ {
				ext.Mcast(p, ports[0], Group, msgs[i])
			}
			for i := 0; i < cfg.Msgs; i++ {
				ports[0].WaitSendDone(p)
			}
			finish[0] = p.Now()
		})
		c.RunUntil(cfg.Deadline)
		return maxTime(finish)
	}
	check := func(d metrics.Snapshot, _ *Result) []string {
		// The receivers must accept exactly the workload's packet count —
		// no more (duplicates accepted), no less (loss papered over).
		var census []string
		want := uint64(cfg.Nodes-1) * uint64(cfg.Msgs) * uint64(ccfg.GM.Packets(cfg.Size))
		if got := d.CounterSum("core", "mcast_received"); got != want {
			census = append(census, fmt.Sprintf(
				"receivers accepted %d multicast packets, workload requires exactly %d", got, want))
		}
		v := flatten(nodeViol)
		return append(v, checkRun(c, ccfg, ports, d, cfg.Deadline, nil, census)...)
	}
	return &traffic{tree: tr, root: tr.Root, run: run, check: check}, nil
}

// maxTime returns the latest of the per-node finish times.
func maxTime(ts []sim.Time) sim.Time {
	var m sim.Time
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

// flatten concatenates per-node violation lists in node order.
func flatten(nodeViol [][]string) []string {
	var v []string
	for _, vs := range nodeViol {
		v = append(v, vs...)
	}
	return v
}
