package chaos_test

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/sim"
)

func testConfig() chaos.Config {
	return chaos.Config{Nodes: 8, Msgs: 10, Size: 10000, Seed: 7}
}

// TestLibraryScenariosPass runs every library scenario through the full
// invariant checker: exactly-once in-order delivery at every receiver,
// all buffers and tokens returned, no leaked timers, balanced fabric
// accounting.
func TestLibraryScenariosPass(t *testing.T) {
	lib := chaos.Library(chaos.Multicast)
	if len(lib) < 8 {
		t.Fatalf("scenario library has %d scenarios, want at least 8", len(lib))
	}
	for _, sc := range lib {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res := chaos.Run(sc, testConfig())
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if !res.Pass {
				t.Fatalf("scenario %s failed the invariant checker", sc.Name)
			}
		})
	}
}

// TestScenariosActuallyInject guards against a library scenario whose
// fault window silently misses the traffic — a pass proves nothing if no
// fault ever engaged.
func TestScenariosActuallyInject(t *testing.T) {
	for _, sc := range chaos.Library(chaos.Multicast) {
		res := chaos.Run(sc, testConfig())
		var ruleHits uint64
		for _, r := range res.Rules {
			ruleHits += r.Hits
		}
		if ruleHits+res.PausedDrops == 0 {
			t.Errorf("scenario %s: no fault rule ever fired (window misses the traffic?)", sc.Name)
		}
	}
}

// TestScenarioRecoveryCost checks that a disruptive outage actually costs
// recovery time relative to the clean baseline — the recovery-latency
// column is measuring something real.
func TestScenarioRecoveryCost(t *testing.T) {
	sc, ok := chaos.Find(chaos.Multicast, "interior-kill")
	if !ok {
		t.Fatal("interior-kill scenario missing from library")
	}
	res := chaos.Run(sc, testConfig())
	if !res.Pass {
		t.Fatalf("interior-kill failed: %v", res.Violations)
	}
	if res.Drops == 0 {
		t.Fatal("interior-kill dropped nothing")
	}
	if res.Recovery <= 0 {
		t.Fatalf("interior-kill recovery latency %v, want > 0 (clean %v, faulted %v)",
			res.Recovery, res.CleanFinish, res.FaultFinish)
	}
	if res.Retransmits == 0 {
		t.Fatal("interior-kill recovered without retransmits — fault never bit")
	}
}

// TestScenarioDeterminism runs the most stochastic scenario twice with the
// same seed and requires identical results, and a third time with another
// seed to show the seed actually steers the fault stream.
func TestScenarioDeterminism(t *testing.T) {
	sc, ok := chaos.Find(chaos.Multicast, "burst-loss")
	if !ok {
		t.Fatal("burst-loss scenario missing from library")
	}
	a := chaos.Run(sc, testConfig())
	b := chaos.Run(sc, testConfig())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\nvs\n%+v", a, b)
	}
	cfg := testConfig()
	cfg.Seed = 8
	c := chaos.Run(sc, cfg)
	if c.Drops == a.Drops && c.FaultFinish == a.FaultFinish {
		t.Fatalf("different seeds produced identical drop count %d and finish %v — seed ignored",
			a.Drops, a.FaultFinish)
	}
}

// TestDegenerateTreeFallback exercises the InteriorNode fallback on a
// cluster too small to have interior nodes.
func TestDegenerateTreeFallback(t *testing.T) {
	sc, ok := chaos.Find(chaos.Multicast, "interior-kill")
	if !ok {
		t.Fatal("interior-kill scenario missing from library")
	}
	cfg := testConfig()
	cfg.Nodes = 2 // root plus one leaf: no interior nodes exist
	res := chaos.Run(sc, cfg)
	if !res.Pass {
		t.Fatalf("interior-kill on 2 nodes failed: %v", res.Violations)
	}
}

// TestBaselineCleanRun pins the fault-free path: a nil Inject must pass
// with zero fault traffic and zero recovery latency.
func TestBaselineCleanRun(t *testing.T) {
	res := chaos.Run(chaos.Scenario{Name: "baseline"}, testConfig())
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

// TestDeadlineFailureDetected proves the checker can fail: a permanent
// outage of a receiver must be reported as a missed deadline, not papered
// over.
func TestDeadlineFailureDetected(t *testing.T) {
	sc := chaos.Scenario{
		Name: "permanent-kill",
		Inject: func(f *chaos.Fault) {
			f.Inj.DropWindow("forever", 100*sim.Microsecond, 0, chaos.MatchNode(f.LeafNode()))
		},
	}
	cfg := testConfig()
	cfg.Deadline = 20 * sim.Millisecond // keep the doomed run short
	res := chaos.Run(sc, cfg)
	if res.Pass {
		t.Fatal("permanently-isolated receiver still passed the invariant checker")
	}
}

// TestSelect pins the CLI scenario lookup: names resolve in list order
// within their campaign, an empty list selects the whole library, and an
// unknown or other-campaign name is an error naming the campaign.
func TestSelect(t *testing.T) {
	got, err := chaos.Select(chaos.Collective, "coll-dup-storm, coll-ack-loss")
	if err != nil || len(got) != 2 || got[0].Name != "coll-dup-storm" || got[1].Name != "coll-ack-loss" ||
		got[0].Campaign != chaos.Collective {
		t.Fatalf("Select = %v, %v", got, err)
	}
	if all, err := chaos.Select(chaos.Membership, ""); err != nil || len(all) != len(chaos.Library(chaos.Membership)) {
		t.Fatalf("empty selection = %d scenarios, %v", len(all), err)
	}
	if _, err := chaos.Select(chaos.Collective, "burst-loss"); err == nil ||
		err.Error() != `unknown collective scenario "burst-loss"` {
		t.Fatalf("multicast name in the collective campaign: err = %v", err)
	}
	if _, err := chaos.Select(chaos.Multicast, "nope"); err == nil || err.Error() != `unknown scenario "nope"` {
		t.Fatalf("unknown name: err = %v", err)
	}
}
