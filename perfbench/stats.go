package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/sim"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 1) of samples.
func percentile(samples []sim.Time, p float64) sim.Time {
	if len(samples) == 0 {
		return 0
	}
	s := append([]sim.Time(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// median of float64 values (mean of the middle two for an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// digest fingerprints latency samples in their recorded order.
func digest(samples []sim.Time) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range samples {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}
