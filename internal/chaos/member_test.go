package chaos_test

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/sim"
)

func memberConfig() chaos.Config {
	return chaos.Config{Nodes: 8, Msgs: 16, Size: 4096, Transitions: 10, Seed: 7}
}

// Every membership scenario must satisfy the membership invariant (each
// payload delivered exactly once, in order, to exactly its epoch's
// members) plus the full quiescence/resource/accounting invariant set —
// including churn-under-loss, the ISSUE's required Gilbert–Elliott run
// with at least 8 transitions.
func TestMemberLibraryScenariosPass(t *testing.T) {
	lib := chaos.Library(chaos.Membership)
	if len(lib) < 4 {
		t.Fatalf("membership scenario library has %d scenarios, want at least 4", len(lib))
	}
	for _, sc := range lib {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res := chaos.Run(sc, memberConfig())
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if !res.Pass {
				t.Fatalf("scenario %s failed the invariant checker", sc.Name)
			}
			// Finalize always commits, so a full run records more epochs
			// than the initial one alone.
			if res.Epochs < 2 {
				t.Fatalf("scenario %s committed only %d epochs — churn never ran", sc.Name, res.Epochs)
			}
		})
	}
}

// The loss scenarios must actually engage their faults while the group
// churns, and the ISSUE's transition floor must hold.
func TestMemberScenariosActuallyInject(t *testing.T) {
	cfg := memberConfig()
	if cfg.Transitions < 8 {
		t.Fatalf("campaign config schedules %d transitions, ISSUE floor is 8", cfg.Transitions)
	}
	for _, sc := range chaos.Library(chaos.Membership) {
		if sc.Inject == nil {
			continue
		}
		res := chaos.Run(sc, cfg)
		var ruleHits uint64
		for _, r := range res.Rules {
			ruleHits += r.Hits
		}
		if ruleHits == 0 && sc.Name != "churn-coordinator-outage" {
			t.Errorf("scenario %s: no fault rule ever fired", sc.Name)
		}
		if sc.Name == "churn-under-loss" && res.Drops == 0 {
			t.Errorf("churn-under-loss dropped nothing — the burst channel missed the run")
		}
	}
}

// Regression: PauseNIC events armed before member.RunOn must fire DURING
// the run, not during the install barrier. RunOn's phase-1 quiescence
// used to drain the whole event heap, so the coordinator-outage pause
// (300µs–1ms) fired before any membership process existed and the
// scenario quietly ran fault-free — unnoticed because PauseNIC is not a
// hit-counted rule. The schedule explorer surfaced it (a pause that
// outlasted the deadline still "passed"). A faulted run that truly hits
// a 1ms outage cannot finish before the NIC resumes.
func TestCoordinatorOutageOverlapsRun(t *testing.T) {
	sc, ok := chaos.Find(chaos.Membership, "churn-coordinator-outage")
	if !ok {
		t.Fatal("churn-coordinator-outage missing from membership library")
	}
	res := chaos.Run(sc, memberConfig())
	if !res.Pass {
		t.Fatalf("scenario failed: %v", res.Violations)
	}
	const pauseEnd = sim.Millisecond
	if res.FaultFinish < pauseEnd {
		t.Fatalf("faulted run finished at %v, before the outage lifted at %v — the pause never overlapped the run",
			res.FaultFinish, pauseEnd)
	}
	if res.FaultFinish <= res.CleanFinish {
		t.Fatalf("faulted finish %v not after clean finish %v — the outage cost nothing",
			res.FaultFinish, res.CleanFinish)
	}
}

// Same seed, same verdict — the membership campaigns must be exactly
// reproducible, faults and all.
func TestMemberScenarioDeterminism(t *testing.T) {
	sc, ok := chaos.Find(chaos.Membership, "churn-under-loss")
	if !ok {
		t.Fatal("churn-under-loss missing from membership library")
	}
	a := chaos.Run(sc, memberConfig())
	b := chaos.Run(sc, memberConfig())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\nvs\n%+v", a, b)
	}
	cfg := memberConfig()
	cfg.Seed = 8
	c := chaos.Run(sc, cfg)
	if c.Drops == a.Drops && c.FaultFinish == a.FaultFinish {
		t.Fatalf("different seeds produced identical drops %d and finish %v — seed ignored",
			a.Drops, a.FaultFinish)
	}
}

// The epoch filters must be reached end-to-end, not just in the core
// unit tests: under bursty loss, a retransmitted or delayed frame can
// arrive at a node that has not yet committed the sender's epoch and be
// dropped by the future-epoch rule until the commit lands. Whether a
// given run opens that window depends on where the burst channel bites,
// so this sweeps a few seeds and requires the rejection path to fire at
// least once across them (the stale-epoch and acked-as-dropped rules
// are pinned directly by internal/core's epoch tests).
func TestMemberEpochFiltersEngage(t *testing.T) {
	sc, ok := chaos.Find(chaos.Membership, "churn-under-loss")
	if !ok {
		t.Fatal("churn-under-loss missing from membership library")
	}
	var filtered uint64
	for seed := int64(1); seed <= 4 && filtered == 0; seed++ {
		cfg := memberConfig()
		cfg.Seed = seed
		res := chaos.Run(sc, cfg)
		if !res.Pass {
			t.Fatalf("seed %d: churn-under-loss failed: %v", seed, res.Violations)
		}
		filtered += res.StaleEpochDrops + res.FutureDrops + res.AckedAsDropped
	}
	if filtered == 0 {
		t.Error("no seed ever exercised the epoch rejection path under churn+loss")
	}
}
