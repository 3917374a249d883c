package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/chaos"
)

// TestChaosCampaignGoldens renders the chaosbench/memberbench -short
// campaigns — multicast, collective and membership, every library
// scenario, Myrinet, seed 1 — through the campaign table writer and pins
// each table's SHA-256. The CLI smoke steps only check that a run
// matches a second run, so a change to the results or the format of all
// three campaigns at once would pass them; this fails on any drift in a
// verdict, a recovery latency, a counter or a column. The digests were
// generated before the three campaign runners were folded into one.
func TestChaosCampaignGoldens(t *testing.T) {
	fc, err := FabricPreset("myrinet")
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Seed = 1
	o.Fabric = fc
	for _, tc := range []struct {
		name   string
		k      chaos.Campaign
		nodes  []int
		churn  []int
		base   chaos.Config
		digest string
	}{
		{"multicast", chaos.Multicast, []int{4, 8}, nil, chaos.Config{Msgs: 10, Size: 10000},
			"add9d98ca9b6ac09f4c1b561dd40b4a4d30c7b38f6e45ce77fef716e8c51bbf7"},
		{"collective", chaos.Collective, []int{4, 8}, nil, chaos.Config{Rounds: 4, Veclen: 4},
			"ec5d78244d0cb7c055f0539b31b7955a8c2063fe69e2a109d1a10088ddcef9fb"},
		{"membership", chaos.Membership, []int{6, 8}, []int{8}, chaos.Config{Msgs: 10, Size: 4096},
			"6efe571332ef3d00251f9a8d361d2b0fa4f46f81cacc008f055950ad985c8530"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			WriteChaosTable(&buf, tc.name, tc.k, o.ChaosSweep(chaos.Library(tc.k), tc.nodes, tc.churn, tc.base))
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.digest {
				t.Errorf("%s campaign table digest %s, want %s:\n%s", tc.name, got, tc.digest, buf.String())
			}
		})
	}
}
