package chaos_test

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
)

func collTestConfig() chaos.Config {
	return chaos.Config{Nodes: 8, Rounds: 4, Veclen: 4, Seed: 7}
}

// TestCollLibraryScenariosPass runs every collective scenario through the
// full invariant checker: correct allreduce/allgather results at every
// node every round, quiescence, no leaked collective records or timers,
// all NIC resources returned, balanced fabric accounting.
func TestCollLibraryScenariosPass(t *testing.T) {
	lib := chaos.Library(chaos.Collective)
	if len(lib) < 5 {
		t.Fatalf("collective scenario library has %d scenarios, want at least 5", len(lib))
	}
	for _, sc := range lib {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res := chaos.Run(sc, collTestConfig())
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if !res.Pass {
				t.Fatalf("scenario %s failed the invariant checker", sc.Name)
			}
		})
	}
}

// TestCollScenariosActuallyInject guards against a scenario whose fault
// window silently misses the collective traffic.
func TestCollScenariosActuallyInject(t *testing.T) {
	for _, sc := range chaos.Library(chaos.Collective) {
		res := chaos.Run(sc, collTestConfig())
		var ruleHits uint64
		for _, r := range res.Rules {
			ruleHits += r.Hits
		}
		if ruleHits+res.PausedDrops == 0 {
			t.Errorf("scenario %s: no fault rule ever fired (window misses the traffic?)", sc.Name)
		}
	}
}

// TestCollRecoveryExercised pins that the headline scenarios actually
// drive the recovery machinery they claim to: burst loss must force
// stop-and-wait retransmissions, and the dup storm must be absorbed by
// the engine's duplicate rejection.
func TestCollRecoveryExercised(t *testing.T) {
	sc, ok := chaos.Find(chaos.Collective, "coll-barrier-burst-loss")
	if !ok {
		t.Fatal("coll-barrier-burst-loss missing from library")
	}
	res := chaos.Run(sc, collTestConfig())
	if !res.Pass {
		t.Fatalf("coll-barrier-burst-loss failed: %v", res.Violations)
	}
	if res.Drops == 0 {
		t.Fatal("coll-barrier-burst-loss dropped nothing")
	}
	if res.Retransmits == 0 {
		t.Fatal("coll-barrier-burst-loss recovered without retransmits — fault never bit")
	}

	sc, ok = chaos.Find(chaos.Collective, "coll-reduce-dup-storm")
	if !ok {
		t.Fatal("coll-reduce-dup-storm missing from library")
	}
	res = chaos.Run(sc, collTestConfig())
	if !res.Pass {
		t.Fatalf("coll-reduce-dup-storm failed: %v", res.Violations)
	}
	if res.Dups == 0 {
		t.Fatal("coll-reduce-dup-storm duplicated nothing")
	}
	if res.CollDups == 0 {
		t.Fatal("dup storm produced no engine-side duplicate rejections")
	}
}

// TestCollScenarioDeterminism runs the most stochastic collective
// scenario twice with the same seed and requires identical results, and
// once more with another seed to show the seed steers the fault stream.
func TestCollScenarioDeterminism(t *testing.T) {
	sc, ok := chaos.Find(chaos.Collective, "coll-bursty-links")
	if !ok {
		t.Fatal("coll-bursty-links missing from library")
	}
	a := chaos.Run(sc, collTestConfig())
	b := chaos.Run(sc, collTestConfig())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\nvs\n%+v", a, b)
	}
	cfg := collTestConfig()
	cfg.Seed = 9
	c := chaos.Run(sc, cfg)
	if c.Drops == a.Drops && c.FaultFinish == a.FaultFinish {
		t.Fatalf("different seeds produced identical drop count %d and finish %v — seed ignored",
			a.Drops, a.FaultFinish)
	}
}

// TestCollBaselineCleanRun pins the fault-free path: a nil Inject must
// pass with zero fault traffic and zero recovery latency.
func TestCollBaselineCleanRun(t *testing.T) {
	res := chaos.Run(chaos.Scenario{Name: "baseline", Campaign: chaos.Collective}, collTestConfig())
	if !res.Pass {
		t.Fatalf("baseline failed: %v", res.Violations)
	}
	if res.Drops != 0 || res.Dups != 0 || res.Retransmits != 0 {
		t.Fatalf("baseline saw fault traffic: drops=%d dups=%d retransmits=%d",
			res.Drops, res.Dups, res.Retransmits)
	}
	if res.Recovery != 0 {
		t.Fatalf("baseline recovery latency %v, want 0", res.Recovery)
	}
}

// TestCollShardedStatelessScenario runs a stateless collective scenario
// on a sharded cluster and requires the same verdict and finish time as
// the serial run — the campaign's reproducibility contract extends to
// the parallel engine.
func TestCollShardedStatelessScenario(t *testing.T) {
	sc, ok := chaos.Find(chaos.Collective, "coll-barrier-burst-loss")
	if !ok {
		t.Fatal("coll-barrier-burst-loss missing from library")
	}
	serial := chaos.Run(sc, collTestConfig())
	cfg := collTestConfig()
	cfg.Shards = 2
	sharded := chaos.Run(sc, cfg)
	if !sharded.Pass {
		t.Fatalf("sharded run failed: %v", sharded.Violations)
	}
	if serial.FaultFinish != sharded.FaultFinish || serial.Drops != sharded.Drops {
		t.Fatalf("sharded run diverged from serial: finish %v vs %v, drops %d vs %d",
			sharded.FaultFinish, serial.FaultFinish, sharded.Drops, serial.Drops)
	}
}
