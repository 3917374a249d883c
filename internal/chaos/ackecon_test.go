package chaos_test

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
)

// economyConfig is testConfig with the full ack economy switched on:
// cumulative acks every 4 packets, piggybacking, and NIC tree ack
// aggregation. The invariant checker additionally verifies that no
// delayed-ack or aggregate-ack timer outlives the run.
func economyConfig() chaos.Config {
	cfg := testConfig()
	cfg.AckEvery = 4
	return cfg
}

// TestLibraryScenariosPassWithAckEconomy re-runs every chaos scenario —
// loss bursts, interior kills, dup storms, pauses — with coalesced,
// piggybacked, and tree-aggregated acks. Exactly-once in-order delivery,
// resource return, and timer hygiene must all survive the economy: a
// coalesced cumulative ack that is lost or delayed must never wedge the
// go-back-N recovery machinery.
func TestLibraryScenariosPassWithAckEconomy(t *testing.T) {
	for _, sc := range chaos.Library(chaos.Multicast) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res := chaos.Run(sc, economyConfig())
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if !res.Pass {
				t.Fatalf("scenario %s failed the invariant checker with the ack economy on", sc.Name)
			}
		})
	}
}

// TestAckEconomyScenarioDeterminism pins that the economy's delayed-ack
// timers and fused ack processing do not perturb the deterministic
// schedule: the same seeded scenario must produce bit-identical results.
func TestAckEconomyScenarioDeterminism(t *testing.T) {
	sc, ok := chaos.Find(chaos.Multicast, "burst-loss")
	if !ok {
		t.Fatal("burst-loss scenario missing from library")
	}
	a := chaos.Run(sc, economyConfig())
	b := chaos.Run(sc, economyConfig())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results with ack economy:\n%+v\nvs\n%+v", a, b)
	}
	if !a.Pass {
		t.Fatalf("burst-loss failed with ack economy: %v", a.Violations)
	}
}

// TestCollLibraryScenariosPassWithAckEconomy runs the collective chaos
// campaign with the ack economy on: the stop-and-wait substrate under
// barrier/allreduce/allgather traffic reuses the same cumulative-ack
// discipline, so every collective scenario must still produce correct
// results at every node and leak no timers or records.
func TestCollLibraryScenariosPassWithAckEconomy(t *testing.T) {
	cfg := collTestConfig()
	cfg.AckEvery = 4
	for _, sc := range chaos.Library(chaos.Collective) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res := chaos.Run(sc, cfg)
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if !res.Pass {
				t.Fatalf("scenario %s failed the invariant checker with the ack economy on", sc.Name)
			}
		})
	}
}

// TestMemberLibraryScenariosPassWithAckEconomy runs the membership churn
// campaign with the ack economy on: epochs roll the group under faults
// while coalesced, piggybacked and tree-aggregated acks carry the data
// and control traffic. The membership invariant, timer hygiene and the
// packet census must all hold exactly as with per-packet acks.
func TestMemberLibraryScenariosPassWithAckEconomy(t *testing.T) {
	cfg := memberConfig()
	cfg.AckEvery = 4
	for _, sc := range chaos.Library(chaos.Membership) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res := chaos.Run(sc, cfg)
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if !res.Pass {
				t.Fatalf("scenario %s failed the invariant checker with the ack economy on", sc.Name)
			}
		})
	}
}
