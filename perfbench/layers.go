package main

import (
	"strconv"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// metric is one reported figure's name and unit; the lists below are the
// ones BENCHMARK.json declares, in the same order.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"live_heap_mb", "MB"},
	{"sim_lat_p50_us", "us"},
	{"sim_lat_p99_us", "us"},
	{"sim_ops_per_ms", "ops/ms"},
}

var perLayer = []metric{
	{"cluster.build_s", "s"},
	{"cluster.build_alloc_mb", "MB"},
	{"fabric.build_s", "s"},
	{"net.injected", "count"},
	{"net.delivered", "count"},
	{"net.dropped", "count"},
	{"net.link_busy_ns", "ns"},
	{"net.switch_stall_ns", "ns"},
	{"net.pfc_pause_ns", "ns"},
	{"tree.build_s", "s"},
	{"tree.validate_s", "s"},
	{"core.install_call_s", "s"},
	{"core.install_quiesce_s", "s"},
	{"core.install_alloc_mb", "MB"},
	{"core.mcast_sent", "count"},
	{"core.mcast_forwarded", "count"},
	{"core.header_rewrites", "count"},
	{"core.forwards_before_full", "count"},
	{"core.mcast_acks_sent", "count"},
	{"core.retransmits", "count"},
	{"core.timeouts", "count"},
	{"core.duplicates", "count"},
	{"core.out_of_order_drops", "count"},
	{"core.ack_latency_p50_ns", "ns"},
	{"core.useful_ratio", "ratio"},
	{"lanai.cpu_busy_ns", "ns"},
	{"lanai.sdma_busy_ns", "ns"},
	{"lanai.rdma_busy_ns", "ns"},
	{"lanai.cpu_backlog_ns_max", "ns"},
	{"lanai.sendbuf_stalls", "count"},
	{"lanai.sendbuf_stall_ns", "ns"},
	{"lanai.rx_nobuffer", "count"},
	{"gm.data_sent", "count"},
	{"gm.acks_sent", "count"},
	{"gm.retransmits", "count"},
	{"gm.duplicates", "count"},
	{"gm.token_wait_mean_ns", "ns"},
	{"coll.barrier_sent", "count"},
	{"coll.reduce_sent", "count"},
	{"coll.reduce_combines", "count"},
	{"coll.retransmits", "count"},
	{"coll.combine_mean_ns", "ns"},
	{"mpi.bcast_factor_small", "ratio"},
	{"mpi.bcast_factor_8k", "ratio"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.events_per_op", "count"},
	{"sim.run_alloc_mb", "MB"},
	{"sim.windows", "count"},
	{"sim.cross_events", "count"},
	{"sim.barrier_wait_share", "frac"},
	{"sim.busy_s.0", "s"},
	{"sim.busy_s.1", "s"},
	{"metrics.trace_overhead_frac", "frac"},
}

// registryTotals folds a snapshot across nodes: counters sum, gauges keep
// the highest high-water mark, histograms merge their buckets.
type registryTotals struct {
	counters map[string]uint64
	highs    map[string]int64
	hists    map[string]*metrics.HistVal
}

func totals(s metrics.Snapshot) registryTotals {
	t := registryTotals{counters: map[string]uint64{}, highs: map[string]int64{}, hists: map[string]*metrics.HistVal{}}
	for _, c := range s.Counters {
		t.counters[c.Component+"."+c.Name] += c.Value
	}
	for _, g := range s.Gauges {
		k := g.Component + "." + g.Name
		if g.High > t.highs[k] {
			t.highs[k] = g.High
		}
	}
	for _, h := range s.Histograms {
		k := h.Component + "." + h.Name
		m := t.hists[k]
		if m == nil {
			m = &metrics.HistVal{Buckets: map[int]uint64{}}
			t.hists[k] = m
		}
		m.Count += h.Count
		m.Sum += h.Sum
		for b, n := range h.Buckets {
			m.Buckets[b] += n
		}
	}
	return t
}

func (t registryTotals) count(k string) float64 { return float64(t.counters[k]) }

func (t registryTotals) mean(k string) float64 {
	if h := t.hists[k]; h != nil {
		return h.Mean()
	}
	return 0
}

// median reports the lower bound of the log2 bucket holding the median
// observation (the registry keeps bucket counts, not samples).
func (t registryTotals) median(k string) float64 {
	h := t.hists[k]
	if h == nil || h.Count == 0 {
		return 0
	}
	var seen uint64
	for b := 0; b < metrics.HistBuckets; b++ {
		seen += h.Buckets[b]
		if 2*seen >= h.Count {
			return float64(metrics.BucketLow(b))
		}
	}
	return 0
}

// layerInputs are the runs a traced invocation makes.
type layerInputs struct {
	base     *trial // untraced, on the workload's own engine configuration
	traced   *trial // traced, serial
	tr       *tracer
	fabric   float64 // standalone fabric build, seconds
	overhead float64 // traced wall / untraced serial wall - 1
}

// layerMetrics computes every per-layer figure. A layer that does no work
// on the workload reads 0.
func layerMetrics(in layerInputs) map[string]float64 {
	tr, t := in.tr, totals(in.tr.reg.Snapshot())
	sec := func(call string) float64 { return tr.wall[call].Seconds() }
	m := map[string]float64{
		"cluster.build_s":             sec("cluster.New"),
		"cluster.build_alloc_mb":      tr.alloc["cluster.New"],
		"fabric.build_s":              in.fabric,
		"net.pfc_pause_ns":            t.count("net.switch_pfc_pause_ns") + t.count("net.uplink_pfc_pause_ns"),
		"tree.build_s":                sec("tree.Binomial"),
		"tree.validate_s":             sec("tree.Validate"),
		"core.install_call_s":         sec("core.InstallGroup"),
		"core.install_quiesce_s":      sec("core.install_quiesce"),
		"core.install_alloc_mb":       tr.alloc["core.InstallGroup"] + tr.alloc["core.install_quiesce"],
		"core.ack_latency_p50_ns":     t.median("core.ack_latency_ns"),
		"lanai.cpu_backlog_ns_max":    float64(t.highs["lanai.cpu_backlog_ns"]),
		"gm.token_wait_mean_ns":       t.mean("gm.token_wait_ns"),
		"coll.combine_mean_ns":        t.mean("coll.combine_ns"),
		"sim.events":                  float64(in.traced.events),
		"sim.events_per_op":           float64(in.traced.events) / float64(in.traced.ops),
		"sim.run_alloc_mb":            tr.alloc["run"],
		"metrics.trace_overhead_frac": in.overhead,
	}
	for _, k := range []string{"net.injected", "net.delivered", "net.dropped", "net.link_busy_ns",
		"net.switch_stall_ns", "core.mcast_sent", "core.mcast_forwarded", "core.header_rewrites",
		"core.forwards_before_full", "core.mcast_acks_sent", "core.retransmits", "core.timeouts",
		"core.duplicates", "core.out_of_order_drops", "lanai.cpu_busy_ns", "lanai.sdma_busy_ns",
		"lanai.rdma_busy_ns", "lanai.sendbuf_stalls", "lanai.sendbuf_stall_ns", "lanai.rx_nobuffer",
		"gm.data_sent", "gm.acks_sent", "gm.retransmits", "gm.duplicates", "coll.barrier_sent",
		"coll.reduce_sent", "coll.reduce_combines", "coll.retransmits"} {
		m[k] = t.count(k)
	}
	if sent := t.count("core.mcast_sent"); sent > 0 {
		m["core.useful_ratio"] = (sent - t.count("core.retransmits")) / sent
	}
	if in.base.events > 0 {
		m["sim.ns_per_event"] = float64(in.base.run.Nanoseconds()) / float64(in.base.events)
	}
	if st := in.base.shard; st != nil {
		m["sim.windows"] = float64(st.Windows)
		m["sim.cross_events"] = float64(st.CrossEvents)
		m["sim.barrier_wait_share"] = st.BarrierWaitShare()
		for i, ns := range st.BusyNs {
			m["sim.busy_s."+strconv.Itoa(i)] = float64(ns) / 1e9
		}
	}
	m["mpi.bcast_factor_small"], m["mpi.bcast_factor_8k"] = bcastFactors(in.traced)
	return m
}

// bcastFactors reports host-based over NIC-based broadcast latency —
// summed over the sizes up to 512 bytes, and at 8 KB — the quantity the
// paper reports as up to 1.78x and 2.02x. A broadcast's latency is from
// the root entering MPI_Bcast to the last rank leaving it.
func bcastFactors(t *trial) (small, at8k float64) {
	var hb, nb sim.Time
	for size, d := range t.bcastNB {
		if size <= 512 {
			nb += d
			hb += t.bcastHB[size]
		}
	}
	if nb > 0 {
		small = float64(hb) / float64(nb)
	}
	if d := t.bcastNB[8192]; d > 0 {
		at8k = float64(t.bcastHB[8192]) / float64(d)
	}
	return small, at8k
}

// shardDelta is the coordinator accounting between two Stats snapshots.
func shardDelta(after, before sim.ShardStats) sim.ShardStats {
	d := after
	d.Windows -= before.Windows
	d.CrossEvents -= before.CrossEvents
	d.Stretched -= before.Stretched
	d.Inline -= before.Inline
	d.EmptyDrains -= before.EmptyDrains
	d.WallNs -= before.WallNs
	d.Events, d.BusyNs, d.WaitNs = sub(after.Events, before.Events), sub(after.BusyNs, before.BusyNs), sub(after.WaitNs, before.WaitNs)
	return d
}

// sub is after - before element-wise; a missing before element counts as 0.
func sub[T uint64 | int64](after, before []T) []T {
	out := append([]T(nil), after...)
	for i := range out {
		if i < len(before) {
			out[i] -= before[i]
		}
	}
	return out
}
