package cluster

import (
	"runtime"
	"testing"

	"repro/internal/coll"
	"repro/internal/tree"
)

// installBytes reports the bytes allocated by one group install on a
// fresh n-host cluster, from the install call through the run to
// quiescence. prepare builds what the install needs (the tree, the member
// list) and returns the install itself; only the install is counted.
func installBytes(t *testing.T, n int, prepare func(c *Cluster) (install func() (ready func() bool))) uint64 {
	t.Helper()
	c := New(n)
	c.OpenPorts(1)
	install := prepare(c)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ready := install()
	c.Run()
	runtime.ReadMemStats(&after)
	if !ready() {
		t.Fatalf("%d hosts: group install incomplete after quiescence", n)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// Installing a group over 4× the hosts must cost about 4× the bytes, not
// the 16× an install that checks or copies the whole group on every NIC
// costs.
func TestGroupInstallScalesLinearly(t *testing.T) {
	const small, large, bound = 256, 1024, 6.0
	for name, prepare := range map[string]func(c *Cluster) func() func() bool{
		"InstallGroup": func(c *Cluster) func() func() bool {
			tr := tree.Binomial(0, c.Members())
			return func() func() bool { return c.InstallGroup(9, tr, 1, 1) }
		},
		"InstallCollGroup": func(c *Cluster) func() func() bool {
			members := c.Members()
			return func() func() bool {
				return c.InstallCollGroup(9, members, 1, coll.WithBarrierAlgo(coll.BarrierTree))
			}
		},
	} {
		a, b := installBytes(t, small, prepare), installBytes(t, large, prepare)
		ratio := float64(b) / float64(a)
		t.Logf("%s: %d hosts %d B, %d hosts %d B, ratio %.2f", name, small, a, large, b, ratio)
		if ratio > bound {
			t.Errorf("%s: %d hosts allocate %d B, %d hosts %d B: ratio %.1f > %.0f",
				name, small, a, large, b, ratio, bound)
		}
	}
}
