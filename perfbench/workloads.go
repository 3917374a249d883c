package main

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"time"

	"repro/internal/clos"
	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/mpi"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/tree"
)

// kind selects which public API a workload drives.
type kind int

const (
	mcastKind kind = iota // core multicast: cluster.InstallGroup + Ext.McastSync
	bcastKind             // mpi.Rank.Bcast, NIC-based and host-based in turn
	collKind              // coll.Engine.Barrier + Allreduce
)

// spec is one benchmark workload. Every input it generates — payload
// bytes, message lengths, arrival skew, the loss stream — comes from the
// run's seed; the fields here fix only the shape.
type spec struct {
	name   string
	kind   kind
	hosts  int
	shards int  // engines for untraced runs (traced runs are serial)
	clos   bool // RDMA-style Clos instead of the Myrinet fabric
	loss   float64

	msgs    int // mcast: root messages per trial
	size    int // mcast: nominal message bytes
	shave   int // mcast: each message is size minus a seed-drawn 0..shave bytes
	rounds  int // bcast: sweeps per trial; coll: Barrier+Allreduce iterations
	maxSize int // bcast: largest broadcast, in bytes (sizes double from 1)
	skewNs  int // bcast, coll: each rank enters each call after a seed-drawn 0..skewNs host delay
}

// The four workloads. Why each exists, and which layer metrics it is
// expected to move, is recorded in README.md.
var specs = []spec{
	{name: "storm-4k", kind: mcastKind, hosts: 4096, shards: 2, msgs: 40, size: 1024, shave: 64},
	{name: "mpi-sweep-16", kind: bcastKind, hosts: 16, rounds: 4, maxSize: 16384, skewNs: 1000},
	{name: "coll-1k-clos", kind: collKind, hosts: 1024, clos: true, rounds: 8, skewNs: 1000},
	{name: "lossy-64", kind: mcastKind, hosts: 64, loss: 1e-3, msgs: 50, size: 64 << 10},
}

func lookup(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// fabricConfig is the backend preset the workload runs on.
func (s spec) fabricConfig() fabric.Config {
	if s.clos {
		return clos.Default()
	}
	return myrinet.Default()
}

// runConfig is one trial's execution mode. The fault fields exist so the
// tests can show that a corrupted payload or a missing delivery is
// counted as failed.
type runConfig struct {
	seed   int64
	shards int
	tr     *tracer // nil: untraced

	corruptFirst bool // mcast: the root sends a damaged copy of message 0
	dropLast     bool // mcast: the root never sends the last message
}

// trial is one set-up plus run phase.
type trial struct {
	setup, run time.Duration // host wall clock
	heapMB     float64       // live Go heap the set-up added, measured after forced GCs

	ops               int // multicast messages, broadcasts or collective calls
	attempted, failed int // deliveries (mcast) or rank-calls (bcast, coll)

	lat         []sim.Time // latency samples, in a fixed order
	start, last sim.Time   // virtual: run phase start and last delivery
	timeline    timeline

	events uint64          // events fired in the run phase
	shard  *sim.ShardStats // run-phase coordinator stats; nil when serial

	bcastHB, bcastNB map[int]sim.Time // bcast: summed per-size latency of the warm sweeps
}

// timeline is what wiring a registry or sharding must not move.
type timeline struct {
	events uint64   // events fired over the whole trial
	end    sim.Time // final virtual clock
	digest uint64   // FNV-1a over the latency samples
}

func (s spec) trial(rc runConfig) *trial {
	switch s.kind {
	case mcastKind:
		return s.mcastTrial(rc)
	case bcastKind:
		return s.bcastTrial(rc)
	default:
		return s.collTrial(rc)
	}
}

// newCluster builds the workload's cluster, wiring the tracer's registry
// when the trial is traced.
func (s spec) newCluster(rc runConfig) *cluster.Cluster {
	opts := []cluster.Option{cluster.WithSeed(rc.seed), cluster.WithShards(rc.shards)}
	if s.clos {
		opts = append(opts, cluster.WithFabric(clos.Default()))
	}
	if s.loss > 0 {
		opts = append(opts, cluster.WithLossRate(s.loss))
	}
	if rc.tr != nil {
		opts = append(opts, cluster.WithMetrics(rc.tr.reg))
	}
	var c *cluster.Cluster
	rc.tr.timed("cluster.New", func() { c = cluster.New(s.hosts, opts...) })
	return c
}

// startSetup collects what earlier trials left behind and notes the heap
// still in use, so that heapMB counts only what this set-up holds. It
// returns the set-up's start time.
func (t *trial) startSetup() time.Time {
	t.heapMB = -liveHeapMB()
	return time.Now()
}

// endSetup closes the set-up phase: it records the wall time and the live
// heap the simulated cluster holds.
func (t *trial) endSetup(c *cluster.Cluster, begun time.Time) {
	t.setup = time.Since(begun)
	t.heapMB += liveHeapMB()
	t.start = c.Now()
}

// liveHeapMB forces a GC and reports the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runPhase drives fn (which runs the cluster) as the timed run phase.
func (t *trial) runPhase(c *cluster.Cluster, tr *tracer, fn func()) {
	var before sim.ShardStats
	if sh := c.Sharded(); sh != nil {
		before = sh.Stats()
	}
	e0 := c.EventsFired()
	t.run = tr.timed("run", fn)
	t.events = c.EventsFired() - e0
	if sh := c.Sharded(); sh != nil {
		st := shardDelta(sh.Stats(), before)
		t.shard = &st
	}
}

// finish records the timeline and releases any process still parked; a
// live process at this point is an operation that never completed, which
// the workload has already counted as failed.
func (t *trial) finish(c *cluster.Cluster) {
	t.timeline = timeline{events: c.EventsFired(), end: c.Now(), digest: digest(t.lat)}
	if c.LiveProcs() > 0 {
		c.Kill()
	}
}

// The group and port every workload that installs a group uses.
const (
	benchGroup gm.GroupID = 7
	benchPort  gm.PortID  = 1
)

// mcastPayloads generates the root's messages: an 8-byte index header
// followed by seed-derived bytes, each message size-shave..size long.
func (s spec) mcastPayloads(seed int64) [][]byte {
	rng := sim.NewRNG(seed*7919 + 1)
	out := make([][]byte, s.msgs)
	for i := range out {
		n := s.size
		if s.shave > 0 {
			n -= rng.Intn(s.shave + 1)
		}
		b := make([]byte, n)
		rng.Fill(b)
		binary.LittleEndian.PutUint64(b, uint64(i))
		out[i] = b
	}
	return out
}

// groupSetup opens the benchmark port on every host and installs one
// binomial multicast group, rooted at host 0, over all of them.
func groupSetup(c *cluster.Cluster, tr *tracer) ([]*gm.Port, func() bool) {
	var ports []*gm.Port
	tr.timed("cluster.OpenPorts", func() { ports = c.OpenPorts(benchPort) })
	var tree0 *tree.Tree
	tr.timed("tree.Binomial", func() { tree0 = tree.Binomial(0, c.Members()) })
	if tr != nil {
		tr.timed("tree.Validate", func() {
			if err := tree0.Validate(); err != nil {
				panic(err) // tree.Binomial produced an invalid tree: a bug
			}
		})
	}
	var ready func() bool
	tr.timed("core.InstallGroup", func() { ready = c.InstallGroup(benchGroup, tree0, benchPort, benchPort) })
	return ports, ready
}

// mcastTrial is storm-4k and lossy-64: one binomial NIC multicast group
// over every host, the root (host 0) posting McastSyncs back to back,
// every other host receiving and checking each message in order.
func (s spec) mcastTrial(rc runConfig) *trial {
	tr := rc.tr
	payloads := s.mcastPayloads(rc.seed)
	t := &trial{ops: s.msgs, attempted: s.msgs * (s.hosts - 1)}

	begun := t.startSetup()
	c := s.newCluster(rc)
	ports, ready := groupSetup(c, tr)

	recvAt := make([][]sim.Time, s.hosts)
	bad := make([]int, s.hosts)
	maxLen := s.size + 256
	for i := 1; i < s.hosts; i++ {
		i, port := i, ports[i]
		recvAt[i] = make([]sim.Time, 0, s.msgs)
		c.SpawnOn(fabric.NodeID(i), "recv", func(p *sim.Proc) {
			port.ProvideN(s.msgs+2, maxLen)
			for k := 0; k < s.msgs; k++ {
				ev := port.Recv(p)
				recvAt[i] = append(recvAt[i], p.Now())
				if !bytes.Equal(ev.Data, payloads[k]) {
					bad[i]++
				}
			}
		})
	}
	tr.timed("core.install_quiesce", c.Run)
	if !ready() {
		panic("perfbench: group install incomplete after quiescence")
	}
	t.endSetup(c, begun)

	post := make([]sim.Time, s.msgs)
	send := s.msgs
	if rc.dropLast {
		send--
	}
	c.SpawnOn(0, "root", func(p *sim.Proc) {
		ext := c.Nodes[0].Ext
		for k := 0; k < send; k++ {
			data := payloads[k]
			if k == 0 && rc.corruptFirst {
				data = append([]byte(nil), data...)
				data[len(data)-1] ^= 0xff
			}
			post[k] = p.Now()
			ext.McastSync(p, ports[0], benchGroup, data)
		}
	})
	t.runPhase(c, tr, c.Run)

	for i := 1; i < s.hosts; i++ {
		got := recvAt[i]
		t.failed += bad[i] + s.msgs - len(got) + ports[i].PendingRecvs()
		for k, at := range got {
			t.lat = append(t.lat, at-post[k])
			if at > t.last {
				t.last = at
			}
		}
	}
	t.finish(c)
	if tr != nil {
		tr.deliverySpans(post, recvAt)
	}
	return t
}

// skewTable draws each rank's host delay before each of calls calls.
func skewTable(seed int64, calls, ranks, maxNs int) [][]sim.Time {
	rng := sim.NewRNG(seed*104729 + 2)
	out := make([][]sim.Time, calls)
	for i := range out {
		out[i] = make([]sim.Time, ranks)
		for r := range out[i] {
			out[i][r] = sim.Time(rng.Intn(maxNs + 1))
		}
	}
	return out
}

// rankCall is one rank's view of one collective call, in virtual time.
type rankCall struct {
	enter, exit sim.Time
	ok, done    bool
}

// bcastSizes is the sweep axis: powers of two from 1 byte to maxSize.
func (s spec) bcastSizes() []int {
	var out []int
	for n := 1; n <= s.maxSize; n *= 2 {
		out = append(out, n)
	}
	return out
}

// bcastTrial is mpi-sweep-16: at each size rank 0 broadcasts once with the
// NIC-based and once with the host-based MPI_Bcast. Each broadcast is one
// lockstep phase — every rank calls Bcast, the cluster runs to
// quiescence — so switching the world's algorithm between phases can never
// split one broadcast across the two.
func (s spec) bcastTrial(rc runConfig) *trial {
	tr := rc.tr
	sizes := s.bcastSizes()
	phases := s.rounds * len(sizes) * 2
	skew := skewTable(rc.seed, phases, s.hosts, s.skewNs)
	rng := sim.NewRNG(rc.seed*15485863 + 3)
	payloads := make([][]byte, s.rounds*len(sizes))
	for i := range payloads {
		payloads[i] = make([]byte, sizes[i%len(sizes)])
		rng.Fill(payloads[i])
	}
	t := &trial{ops: phases, attempted: phases * s.hosts,
		bcastHB: map[int]sim.Time{}, bcastNB: map[int]sim.Time{}}

	begun := t.startSetup()
	c := s.newCluster(rc)
	var w *mpi.World
	tr.timed("mpi.NewWorld", func() { w = mpi.NewWorld(c, true) })
	tr.timed("cluster.Run", c.Run)
	t.endSetup(c, begun)

	calls := make([][]rankCall, phases)
	t.runPhase(c, tr, func() {
		for ph := 0; ph < phases; ph++ {
			payload, nb := payloads[ph/2], ph%2 == 0
			rec := make([]rankCall, s.hosts)
			calls[ph] = rec
			w.UseNB = nb
			w.Spawn(func(r *mpi.Rank) {
				id := r.ID()
				r.Proc().Compute(skew[ph][id])
				buf := make([]byte, len(payload))
				if id == 0 {
					copy(buf, payload)
				}
				enter := r.Now()
				out := r.Bcast(0, buf)
				rec[id] = rankCall{enter: enter, exit: r.Now(), ok: bytes.Equal(out, payload), done: true}
			})
			c.Run()
			if c.LiveProcs() > 0 {
				return // a broadcast never completed; later phases are not attempted
			}
		}
	})

	for ph, rec := range calls {
		if rec == nil {
			t.failed += s.hosts
			continue
		}
		var latest sim.Time
		for _, rcl := range rec {
			if !rcl.done || !rcl.ok {
				t.failed++
			}
			if !rcl.done {
				continue
			}
			t.lat = append(t.lat, rcl.exit-rcl.enter)
			if rcl.exit > latest {
				latest = rcl.exit
			}
		}
		if latest > t.last {
			t.last = latest
		}
		if ph < 2*len(sizes) {
			continue // the first sweep creates each size's group context; the factors compare warm broadcasts
		}
		size := len(payloads[ph/2])
		span := latest - rec[0].enter
		if ph%2 == 0 {
			t.bcastNB[size] += span
		} else {
			t.bcastHB[size] += span
		}
	}
	t.finish(c)
	if tr != nil {
		tr.callSpans(calls, func(ph int) string {
			if ph%2 == 0 {
				return "bcast-nb"
			}
			return "bcast-hb"
		})
	}
	return t
}

// collTrial is coll-1k-clos: every host runs the NIC-resident Barrier and
// then a one-element Allreduce on its collective engine, rounds times, in
// one closed loop. It drives the coll engine directly rather than through
// mpi: an MPI world preposts 128 eager buffers of 16 KB per rank, about
// 2 GB of host memory at 1024 ranks.
func (s spec) collTrial(rc runConfig) *trial {
	tr := rc.tr
	calls := 2 * s.rounds
	skew := skewTable(rc.seed, s.rounds, s.hosts, s.skewNs)
	rng := sim.NewRNG(rc.seed*32452843 + 4)
	vals := make([][]int64, s.rounds)
	sums := make([]int64, s.rounds)
	for it := range vals {
		vals[it] = make([]int64, s.hosts)
		for r := range vals[it] {
			vals[it][r] = rng.Int63n(2_000_001) - 1_000_000
			sums[it] += vals[it][r]
		}
	}
	t := &trial{ops: calls, attempted: calls * s.hosts}

	begun := t.startSetup()
	c := s.newCluster(rc)
	ports, ready := groupSetup(c, tr)
	var collReady func() bool
	tr.timed("coll.InstallCollGroup", func() { collReady = c.InstallCollGroup(benchGroup, c.Members(), benchPort) })
	for i := 1; i < s.hosts; i++ {
		i := i
		// One receive token per Allreduce for the result multicast down the tree.
		c.WithNode(fabric.NodeID(i), func() { ports[i].ProvideN(s.rounds, 8) })
	}
	tr.timed("core.install_quiesce", c.Run)
	if !ready() || !collReady() {
		panic("perfbench: group install incomplete after quiescence")
	}
	t.endSetup(c, begun)

	rec := make([][]rankCall, calls)
	for i := range rec {
		rec[i] = make([]rankCall, s.hosts)
	}
	for i := 0; i < s.hosts; i++ {
		i, eng, port := i, c.Nodes[i].Coll, ports[i]
		c.SpawnOn(fabric.NodeID(i), "rank", func(p *sim.Proc) {
			for it := 0; it < s.rounds; it++ {
				p.Compute(skew[it][i])
				enter := p.Now()
				eng.Barrier(p, port, benchGroup)
				mid := p.Now()
				rec[2*it][i] = rankCall{enter: enter, exit: mid, ok: true, done: true}
				out := eng.Allreduce(p, port, benchGroup, []int64{vals[it][i]}, coll.OpSum)
				rec[2*it+1][i] = rankCall{enter: mid, exit: p.Now(), ok: len(out) == 1 && out[0] == sums[it], done: true}
			}
		})
	}
	t.runPhase(c, tr, c.Run)

	for _, row := range rec {
		for _, rcl := range row {
			if !rcl.done || !rcl.ok {
				t.failed++
			}
			if !rcl.done {
				continue
			}
			t.lat = append(t.lat, rcl.exit-rcl.enter)
			if rcl.exit > t.last {
				t.last = rcl.exit
			}
		}
	}
	t.finish(c)
	if tr != nil {
		tr.callSpans(rec, func(i int) string {
			if i%2 == 0 {
				return "barrier"
			}
			return "allreduce"
		})
	}
	return t
}
