package coll

import "repro/internal/metrics"

// Component is the metrics component name for the collective engine.
const Component = "coll"

// instruments are the collective counters and distributions for one NIC,
// cached so the firmware hot path does no registry lookups (nil fields are
// no-ops when no registry is wired).
type instruments struct {
	barrierSent    *metrics.Counter // barrier round/up/down messages transmitted
	barrierRounds  *metrics.Counter // dissemination rounds entered
	barriersDone   *metrics.Counter // barrier instances completed at this NIC
	reduceSent     *metrics.Counter // combined vectors sent up the tree
	reduceCombines *metrics.Counter // per-contribution combining steps
	reducesDone    *metrics.Counter // reduction instances completed (root)
	gatherSent     *metrics.Counter // allgather batch chunks sent up the tree
	gathersDone    *metrics.Counter // allgather instances completed at this NIC
	ringSent       *metrics.Counter // ring-allgather hops transmitted
	retransmits    *metrics.Counter // stop-and-wait retransmissions
	acksSuppressed *metrics.Counter // per-chunk gather acks avoided by coalescing
	duplicates     *metrics.Counter // duplicate collective frames dropped
	notMemberDrops *metrics.Counter // frames for groups this NIC has no entry for
	bytesForwarded *metrics.Counter // payload bytes moved up the tree / around the ring
	combineNs      *metrics.Histogram
}

func (e *Engine) initMetrics(reg *metrics.Registry) {
	id := int(e.nic.ID())
	e.m = instruments{
		barrierSent:    reg.Counter(Component, id, "barrier_sent"),
		barrierRounds:  reg.Counter(Component, id, "barrier_rounds"),
		barriersDone:   reg.Counter(Component, id, "barriers_done"),
		reduceSent:     reg.Counter(Component, id, "reduce_sent"),
		reduceCombines: reg.Counter(Component, id, "reduce_combines"),
		reducesDone:    reg.Counter(Component, id, "reduces_done"),
		gatherSent:     reg.Counter(Component, id, "gather_sent"),
		gathersDone:    reg.Counter(Component, id, "gathers_done"),
		ringSent:       reg.Counter(Component, id, "ring_sent"),
		retransmits:    reg.Counter(Component, id, "retransmits"),
		acksSuppressed: reg.Counter(Component, id, "acks_suppressed"),
		duplicates:     reg.Counter(Component, id, "duplicates"),
		notMemberDrops: reg.Counter(Component, id, "not_member_drops"),
		bytesForwarded: reg.Counter(Component, id, "bytes_forwarded"),
		combineNs:      reg.Histogram(Component, id, "combine_ns"),
	}
}
