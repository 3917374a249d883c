package cluster_test

import (
	"errors"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestSentinelsReachCallers checks the fabric sentinels flow out of the
// code paths that raise them — loss-rate validation and every sharding
// refusal — matchable by errors.Is.
func TestSentinelsReachCallers(t *testing.T) {
	eng := sim.NewEngine()
	net := fabric.SingleSwitch(eng, 2, fabric.DefaultLinkParams())
	if err := net.SetLossRate(1.5); !errors.Is(err, fabric.ErrBadLossRate) {
		t.Errorf("SetLossRate(1.5) = %v, want ErrBadLossRate", err)
	}
	if err := net.SetLossRate(0.5); !errors.Is(err, fabric.ErrLossRateWithoutRNG) {
		t.Errorf("SetLossRate without RNG = %v, want ErrLossRateWithoutRNG", err)
	}

	panics := func(build func()) (err error) {
		defer func() {
			r := recover()
			e, ok := r.(error)
			if !ok {
				t.Fatalf("panicked with non-error %v", r)
			}
			err = e
		}()
		build()
		return nil
	}
	if err := panics(func() { cluster.New(8, cluster.WithShards(2), cluster.WithLossRate(0.01)) }); !errors.Is(err, fabric.ErrShardsWithLossRate) {
		t.Errorf("sharded lossy cluster panicked with %v, want fabric.ErrShardsWithLossRate", err)
	}
	if err := panics(func() { cluster.New(8, cluster.WithShards(2), cluster.WithTrace(trace.NewRecorder())) }); !errors.Is(err, fabric.ErrShardsWithTrace) {
		t.Errorf("sharded traced cluster panicked with %v, want fabric.ErrShardsWithTrace", err)
	}
	sharded := cluster.New(8, cluster.WithShards(2))
	in := chaos.NewInjector(sharded.Net, 1)
	if err := panics(func() { in.DropProb("flaky", 0, 0, 0.5, chaos.MatchAll) }); !errors.Is(err, fabric.ErrShardsStateful) {
		t.Errorf("stochastic rule on a sharded fabric panicked with %v, want fabric.ErrShardsStateful", err)
	}
}
