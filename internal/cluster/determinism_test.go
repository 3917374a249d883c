package cluster_test

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tree"
)

// runTraced drives one multicast workload (with retransmission pressure
// from a lossy fabric) and returns the full packet timeline plus the
// cluster. The metrics options are the only thing varied between runs.
func runTraced(t *testing.T, opts ...cluster.Option) ([]byte, *cluster.Cluster) {
	t.Helper()
	tr := trace.NewRecorder()
	c := cluster.New(8, append(opts,
		cluster.WithTrace(tr),
		cluster.WithSeed(7),
		cluster.WithLossRate(0.02),
	)...)
	ports := c.OpenPorts(1)
	ready := c.InstallGroup(7, tree.Binomial(0, c.Members()), 1, 1)
	c.Eng.Spawn("root", func(p *sim.Proc) {
		for !ready() {
			p.Sleep(sim.Micros(1))
		}
		ext := c.Nodes[0].Ext
		for i := 0; i < 5; i++ {
			ext.McastSync(p, ports[0], 7, make([]byte, 2000))
		}
	})
	for i := 1; i < 8; i++ {
		port := ports[i]
		c.Eng.Spawn("recv", func(p *sim.Proc) {
			port.ProvideN(8, 1<<12)
			for got := 0; got < 5; got++ {
				port.Recv(p)
			}
		})
	}
	c.Eng.Run()
	c.Eng.Kill()

	if tr.Len() == 0 {
		t.Fatal("workload recorded no trace events; determinism check is vacuous")
	}
	var buf bytes.Buffer
	tr.WriteTimeline(&buf)
	return buf.Bytes(), c
}

// TestMetricsDoNotPerturbSimulation proves the observability layer is pure
// measurement: the packet-level timeline of a lossy multicast run is
// byte-identical whether metrics are enabled or off. Off means no registry
// at all — a cluster built without WithMetrics must not build instruments
// behind the caller's back. Instrument updates never touch the engine, so
// any divergence here is a bug in the metrics threading.
func TestMetricsDoNotPerturbSimulation(t *testing.T) {
	on, _ := runTraced(t, cluster.WithMetrics(metrics.New()))
	off, c := runTraced(t)

	for _, n := range c.Nodes {
		if reg := n.HW.Registry(); reg != nil {
			t.Fatalf("node %d has a registry although none was wired", n.ID)
		}
	}
	if !bytes.Equal(on, off) {
		t.Errorf("timeline with metrics enabled differs from metrics off (%d vs %d bytes)", len(on), len(off))
	}
}
