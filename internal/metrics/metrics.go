// Package metrics is the unified observability layer of the simulated
// Myrinet/GM stack. Every layer — the fabric (myrinet), the NIC hardware
// (lanai), the GM firmware (gm), and the multicast extension (core) —
// registers its counters, gauges, and histograms here, keyed by component
// and node, so a run can be explained the way the paper explains its
// curves: where the LANai CPU cycles went, how busy the DMA engines were,
// how many retransmissions the loss recovery paid, where buffer pools
// stalled.
//
// Instruments are allocation-light and nil-safe: a nil registry hands out
// nil instruments, and every method on a nil instrument is a no-op. Instrument updates never touch the simulation engine, so
// enabling metrics cannot change any simulated timestamp — a property the
// determinism tests pin down.
//
// Instruments are lock-free atomics: a sharded run (cluster.WithShards)
// updates one registry from several engine goroutines concurrently, and
// because every operation is commutative (sums, monotone high-water marks,
// bucket counts), final values stay deterministic no matter how shard
// execution interleaves. Registry lookups take a mutex — instruments are
// created lazily, sometimes mid-run.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Key identifies one instrument: the component (layer) that owns it, the
// node it belongs to (NodeFabric for fabric-wide instruments), and its
// name.
type Key struct {
	Component string `json:"component"`
	Node      int    `json:"node"`
	Name      string `json:"name"`
}

// NodeFabric is the Node value for instruments that belong to no single
// node (fabric-wide link counters, switch contention).
const NodeFabric = -1

func (k Key) String() string {
	if k.Node == NodeFabric {
		return k.Component + "." + k.Name
	}
	return fmt.Sprintf("%s[%d].%s", k.Component, k.Node, k.Name)
}

// Registry holds a run's instruments. The zero value is unusable; build
// one with New. A nil *Registry is the "metrics off" state: it hands out
// nil instruments, making every instrument operation a no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[Key]*Counter
	gauges   map[Key]*Gauge
	hists    map[Key]*Histogram
}

// New returns an enabled registry.
func New() *Registry {
	return &Registry{
		counters: make(map[Key]*Counter),
		gauges:   make(map[Key]*Gauge),
		hists:    make(map[Key]*Histogram),
	}
}

// Counter returns (creating on first use) the named counter, or nil when
// the registry is nil.
func (r *Registry) Counter(component string, node int, name string) *Counter {
	if r == nil {
		return nil
	}
	k := Key{component, node, name}
	r.mu.Lock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	r.mu.Unlock()
	return c
}

// Gauge returns (creating on first use) the named gauge, or nil when the
// registry is nil.
func (r *Registry) Gauge(component string, node int, name string) *Gauge {
	if r == nil {
		return nil
	}
	k := Key{component, node, name}
	r.mu.Lock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	r.mu.Unlock()
	return g
}

// Histogram returns (creating on first use) the named histogram, or nil
// when the registry is nil.
func (r *Registry) Histogram(component string, node int, name string) *Histogram {
	if r == nil {
		return nil
	}
	k := Key{component, node, name}
	r.mu.Lock()
	h, ok := r.hists[k]
	if !ok {
		h = newHistogram()
		r.hists[k] = h
	}
	r.mu.Unlock()
	return h
}

// sortedKeys returns map keys in deterministic (component, node, name)
// order.
func sortedKeys[V any](m map[Key]V) []Key {
	out := make([]Key, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Name < b.Name
	})
	return out
}

// Counter is a monotonically increasing count. All methods are no-ops on
// a nil receiver.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// AddInt adds n when positive (negative and zero are ignored); it exists
// so duration-like int64 quantities can be accumulated without a cast at
// every call site.
func (c *Counter) AddInt(n int64) {
	if c != nil && n > 0 {
		c.v.Add(uint64(n))
	}
}

// Value reports the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level with a high-water mark. All methods are
// no-ops on a nil receiver. Gauges track entity-local levels (one shard
// writes, so Add has no lost-update problem in practice); the high-water
// mark is a CAS loop so even a shared gauge's High stays monotone.
type Gauge struct{ v, high atomic.Int64 }

// Set replaces the level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		h := g.high.Load()
		if v <= h || g.high.CompareAndSwap(h, v) {
			return
		}
	}
}

// Add moves the level by d (negative allowed).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.Set(g.v.Add(d))
}

// Value reports the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// High reports the high-water mark (0 on nil).
func (g *Gauge) High() int64 {
	if g == nil {
		return 0
	}
	return g.high.Load()
}

// HistBuckets is the number of fixed log2 histogram buckets: bucket 0
// holds observations <= 0, bucket i (1..64) holds observations v with
// bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
const HistBuckets = 65

// Histogram accumulates observations into fixed log2 buckets — no
// allocation per observation, constant memory, and enough resolution to
// tell a 5 µs token wait from a 500 µs retransmission timeout. All
// methods are no-ops on a nil receiver.
type Histogram struct {
	count atomic.Uint64
	sum   atomic.Int64
	// min and max hold the extremes offset by nothing, with hasObs
	// flagging whether any observation arrived (so 0 needn't be a
	// sentinel); all three advance by CAS, keeping the final values
	// deterministic under concurrent observers.
	min     atomic.Int64
	max     atomic.Int64
	buckets [HistBuckets]atomic.Uint64
}

// newHistogram seeds the CAS extremes so the first Observe needs no
// special case (the registry is the only constructor).
func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// BucketOf reports the bucket index an observation lands in.
func BucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketLow reports the smallest positive value of bucket i (0 for
// bucket 0).
func BucketLow(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// Observe folds one value into the histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	for {
		m := h.min.Load()
		if v >= m || h.min.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[BucketOf(v)].Add(1)
}

// Count reports how many observations were folded in (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of all observations (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Min and Max report the extreme observations (0 on nil or empty).
func (h *Histogram) Min() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

func (h *Histogram) Max() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Mean reports the arithmetic mean observation (0 on nil or empty).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile estimates the q-th quantile (0..1) from the log2 buckets,
// returning the lower bound of the bucket holding that rank — a
// deliberately conservative estimate with log2 resolution.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	count := h.count.Load()
	if count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(count-1))
	var seen uint64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		seen += n
		if n > 0 && seen > rank {
			return BucketLow(i)
		}
	}
	return BucketLow(HistBuckets - 1)
}
