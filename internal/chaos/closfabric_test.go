package chaos_test

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/clos"
)

func closConfig() chaos.Config {
	return chaos.Config{Nodes: 8, Msgs: 10, Size: 10000, Seed: 7, Fabric: clos.Default()}
}

// TestLibraryScenariosPassOnClos runs the entire fault-scenario library on
// the Clos backend through the full invariant checker — the cross-fabric
// reliability bar: exactly-once in-order delivery, all buffers and tokens
// returned, no leaked timers, balanced packet accounting, now over ECMP
// paths and PFC backpressure instead of the Myrinet crossbar.
func TestLibraryScenariosPassOnClos(t *testing.T) {
	for _, sc := range chaos.Library(chaos.Multicast) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res := chaos.Run(sc, closConfig())
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if !res.Pass {
				t.Fatalf("scenario %s failed the invariant checker on clos", sc.Name)
			}
		})
	}
}

// TestLibraryScenariosPassOnMultiLeafClos repeats the sweep at a size that
// forces a multi-switch leaf-spine, so recovery paths cross ECMP-selected
// trunks rather than one shared crossbar.
func TestLibraryScenariosPassOnMultiLeafClos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-leaf campaign is slow")
	}
	cfg := closConfig()
	cfg.Nodes = 40
	cfg.Msgs = 6
	for _, sc := range chaos.Library(chaos.Multicast) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res := chaos.Run(sc, cfg)
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if !res.Pass {
				t.Fatalf("scenario %s failed the invariant checker on 40-node clos", sc.Name)
			}
		})
	}
}

// TestMemberLibraryPassesOnClos runs every membership-churn scenario on
// the Clos backend: epochs roll the group under faults while payloads
// stream, and the membership invariant — epoch-E payloads reach exactly
// E's members, exactly once, in order — must hold on the new fabric.
func TestMemberLibraryPassesOnClos(t *testing.T) {
	for _, sc := range chaos.Library(chaos.Membership) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res := chaos.Run(sc, chaos.Config{
				Nodes: 8, Msgs: 12, Size: 4096, Transitions: 6, Seed: 7,
				Fabric: clos.Default(),
			})
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if !res.Pass {
				t.Fatalf("scenario %s failed the membership invariants on clos", sc.Name)
			}
		})
	}
}

// TestScenariosActuallyInjectOnClos guards the cross-fabric campaign
// against vacuous passes: every scenario's fault rules must engage on the
// Clos backend too — in particular switch-outage, which targets the
// root's switch by label and would silently miss if it still assumed the
// Myrinet crossbar's name.
func TestScenariosActuallyInjectOnClos(t *testing.T) {
	for _, sc := range chaos.Library(chaos.Multicast) {
		res := chaos.Run(sc, closConfig())
		var ruleHits uint64
		for _, r := range res.Rules {
			ruleHits += r.Hits
		}
		if ruleHits+res.PausedDrops == 0 {
			t.Errorf("scenario %s: no fault rule ever fired on clos", sc.Name)
		}
	}
}

// TestClosCampaignDeterminism pins the reproducibility contract on the new
// backend: the most stochastic scenario, run twice at the same seed on
// Clos, must produce identical results down to every counter.
func TestClosCampaignDeterminism(t *testing.T) {
	sc, ok := chaos.Find(chaos.Multicast, "burst-loss")
	if !ok {
		t.Fatal("burst-loss scenario missing from library")
	}
	a := chaos.Run(sc, closConfig())
	b := chaos.Run(sc, closConfig())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed on clos, different results:\n%+v\nvs\n%+v", a, b)
	}
	myr := chaos.Run(sc, testConfig())
	if a.FaultFinish == myr.FaultFinish && a.Drops == myr.Drops {
		t.Fatalf("clos and myrinet campaigns identical (finish %v, %d drops) — Fabric config ignored",
			a.FaultFinish, a.Drops)
	}
}
