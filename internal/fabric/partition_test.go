package fabric

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// dumbbell builds the heterogeneous-latency fixture the objective tests
// share: two leaf switches with two hosts each (so two shards split the
// hosts leaf-per-leaf), joined through a middle switch that has one fast
// link pair to leaf 0 and two slow link pairs to leaf 1.
//
//	host0 ─┐                       ┌─ host2
//	       L0 ══fast══ M ──slow×2── L1
//	host1 ─┘                       └─ host3
//
// Min-cut joins M to leaf 1 (two links beat one) and cuts the fast pair;
// max-lookahead joins M to leaf 0 (inverse latency: one fast link outpulls
// two slow ones) and cuts both slow pairs.
func dumbbell(fast, slow sim.Time) *Network {
	base := LinkParams{Latency: fast, NsPerByte: 4.0}
	n := New(sim.NewEngine(), base)
	l0 := n.AddSwitch("L0")
	l1 := n.AddSwitch("L1")
	m := n.AddSwitch("M")
	n.AddHost(0, l0)
	n.AddHost(1, l0)
	n.AddHost(2, l1)
	n.AddHost(3, l1)
	n.ConnectWith(l0, m, base)
	slowP := LinkParams{Latency: slow, NsPerByte: 4.0}
	n.ConnectWith(m, l1, slowP)
	n.ConnectWith(m, l1, slowP)
	n.UseBFSRoute()
	return n
}

// TestPartitionObjectivesPlaceCutsDifferently pins the heterogeneous-
// latency behavior of both objectives on the dumbbell: min-cut minimizes
// the number of cut links and lands the cut on the fast pair; the default
// max-lookahead objective keeps the fast pair interior and cuts the slow
// pairs, trading one extra cut link for a 10x wider window.
func TestPartitionObjectivesPlaceCutsDifferently(t *testing.T) {
	const fast, slow = 100 * sim.Nanosecond, 1000 * sim.Nanosecond

	mc := dumbbell(fast, slow).PartitionObjective(2, ObjectiveMinCut)
	if mc.CutLinks != 2 || mc.Lookahead != fast {
		t.Fatalf("mincut: %d cut links, lookahead %v; want 2 cut links at %v",
			mc.CutLinks, mc.Lookahead, fast)
	}

	ml := dumbbell(fast, slow).PartitionObjective(2, ObjectiveMaxLookahead)
	if ml.CutLinks != 4 || ml.Lookahead != slow {
		t.Fatalf("maxlookahead: %d cut links, lookahead %v; want 4 cut links at %v",
			ml.CutLinks, ml.Lookahead, slow)
	}
	if ml.Lookahead <= mc.Lookahead {
		t.Fatalf("maxlookahead window %v not wider than mincut %v", ml.Lookahead, mc.Lookahead)
	}
	// The per-pair matrix carries the directed cut latencies the adaptive
	// coordinator consumes.
	for s := 0; s < 2; s++ {
		for d := 0; d < 2; d++ {
			want := sim.Time(0)
			if s != d {
				want = slow
			}
			if got := ml.PairLookahead[s][d]; got != want {
				t.Fatalf("maxlookahead PairLookahead[%d][%d] = %v, want %v", s, d, got, want)
			}
		}
	}
	if ml.CutLatency != 4*slow {
		t.Fatalf("maxlookahead CutLatency = %v, want %v", ml.CutLatency, 4*slow)
	}
}

// TestPartitionDefaultIsMaxLookahead pins that Partition is the
// max-lookahead objective.
func TestPartitionDefaultIsMaxLookahead(t *testing.T) {
	const fast, slow = 100 * sim.Nanosecond, 1000 * sim.Nanosecond
	def := dumbbell(fast, slow).Partition(2)
	obj := dumbbell(fast, slow).PartitionObjective(2, ObjectiveMaxLookahead)
	if !reflect.DeepEqual(def, obj) {
		t.Fatalf("Partition(2) != PartitionObjective(2, ObjectiveMaxLookahead):\n%+v\nvs\n%+v", def, obj)
	}
	if def.Lookahead != slow {
		t.Fatalf("default objective lookahead = %v, want %v", def.Lookahead, slow)
	}
}

// TestPartitionUniformLatencyObjectivesAgree checks the degenerate case
// that protects every calibrated topology: with one latency everywhere,
// inverse-latency weights are proportional to link counts, so both
// objectives produce the same cut structure (cut counts and lookahead; the
// exact assignment may differ by tie-breaking).
func TestPartitionUniformLatencyObjectivesAgree(t *testing.T) {
	build := func() *Network {
		return SingleSwitch(sim.NewEngine(), 8, DefaultLinkParams())
	}
	a := build().PartitionObjective(4, ObjectiveMaxLookahead)
	b := build().PartitionObjective(4, ObjectiveMinCut)
	if a.Lookahead != b.Lookahead || a.CutLinks != b.CutLinks {
		t.Fatalf("uniform fabric: maxlookahead (%d cuts, %v) vs mincut (%d cuts, %v) disagree",
			a.CutLinks, a.Lookahead, b.CutLinks, b.Lookahead)
	}
}

// TestObjectiveString pins the report labels.
func TestObjectiveString(t *testing.T) {
	if got := ObjectiveMaxLookahead.String(); got != "maxlookahead" {
		t.Fatalf("ObjectiveMaxLookahead = %q", got)
	}
	if got := ObjectiveMinCut.String(); got != "mincut" {
		t.Fatalf("ObjectiveMinCut = %q", got)
	}
}

// TestPartitionHeterogeneousBalanceTieBreak checks the max-lookahead
// tie-break: with symmetric weights, the switch goes to the tied shard
// with fewer vertices.
func TestPartitionHeterogeneousBalanceTieBreak(t *testing.T) {
	params := DefaultLinkParams()
	n := New(sim.NewEngine(), params)
	l0 := n.AddSwitch("L0")
	l1 := n.AddSwitch("L1")
	m := n.AddSwitch("M")
	// Shard 0 gets three hosts, shard 1 gets one (contiguous blocks of 4
	// hosts over 2 shards split 2/2 — so force imbalance with an extra
	// switch on side 0 instead).
	x := n.AddSwitch("X0") // extra interior vertex inflating shard 0
	n.AddHost(0, l0)
	n.AddHost(1, l0)
	n.AddHost(2, l1)
	n.AddHost(3, l1)
	n.Connect(l0, x)
	n.Connect(l0, m)
	n.Connect(m, l1)
	n.UseBFSRoute()
	plan := n.PartitionObjective(2, ObjectiveMaxLookahead)
	// M has one equal-latency link to each side; shard 0 holds an extra
	// vertex (X0), so balance sends M to shard 1.
	if got := plan.VertexShard[m.idx]; got != 1 {
		t.Fatalf("tied switch joined shard %d, want 1 (balance tie-break)", got)
	}
}
