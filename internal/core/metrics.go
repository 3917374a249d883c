package core

import "repro/internal/metrics"

// Component is the metrics component name for the multicast extension.
const Component = "core"

// instruments are the multicast counters and distributions for one NIC,
// cached so the forwarding hot path does no registry lookups. When no
// registry is wired every field is nil and updates are no-ops.
type instruments struct {
	mcastSent        *metrics.Counter
	mcastReceived    *metrics.Counter
	mcastForwarded   *metrics.Counter
	acksSent         *metrics.Counter
	acksRecv         *metrics.Counter
	acksSuppressed   *metrics.Counter
	acksAggregated   *metrics.Counter
	retransmits      *metrics.Counter
	timeouts         *metrics.Counter
	duplicates       *metrics.Counter
	oooDrops         *metrics.Counter
	noTokenDrops     *metrics.Counter
	notMemberDrops   *metrics.Counter
	nacksSent        *metrics.Counter
	nacksRecv        *metrics.Counter
	staleEpochDrops  *metrics.Counter
	futureEpochDrops *metrics.Counter
	staleEpochAcks   *metrics.Counter
	ackedAsDropped   *metrics.Counter
	epochCommits     *metrics.Counter
	quiesceReqs      *metrics.Counter

	// headerRewrites counts transmit-callback header rewrites (the
	// multisend mechanism's defining per-replica cost); fwdBeforeFull
	// counts packets forwarded to children before their message had fully
	// arrived (per-packet pipelining at work); fanout observes the child
	// count of each replicated packet; ackLatencyNs observes, per retired
	// send record, the delay from (re)transmission to the ack that
	// cleared its last pending child.
	headerRewrites *metrics.Counter
	fwdBeforeFull  *metrics.Counter
	fanout         *metrics.Histogram
	ackLatencyNs   *metrics.Histogram
}

func (e *Ext) initMetrics(reg *metrics.Registry) {
	id := int(e.nic.ID())
	e.m = instruments{
		mcastSent:        reg.Counter(Component, id, "mcast_sent"),
		mcastReceived:    reg.Counter(Component, id, "mcast_received"),
		mcastForwarded:   reg.Counter(Component, id, "mcast_forwarded"),
		acksSent:         reg.Counter(Component, id, "mcast_acks_sent"),
		acksRecv:         reg.Counter(Component, id, "mcast_acks_received"),
		acksSuppressed:   reg.Counter(Component, id, "mcast_acks_suppressed"),
		acksAggregated:   reg.Counter(Component, id, "mcast_acks_aggregated"),
		retransmits:      reg.Counter(Component, id, "retransmits"),
		timeouts:         reg.Counter(Component, id, "timeouts"),
		duplicates:       reg.Counter(Component, id, "duplicates"),
		oooDrops:         reg.Counter(Component, id, "out_of_order_drops"),
		noTokenDrops:     reg.Counter(Component, id, "no_token_drops"),
		notMemberDrops:   reg.Counter(Component, id, "not_member_drops"),
		nacksSent:        reg.Counter(Component, id, "mcast_nacks_sent"),
		nacksRecv:        reg.Counter(Component, id, "mcast_nacks_received"),
		staleEpochDrops:  reg.Counter(Component, id, "stale_epoch_drops"),
		futureEpochDrops: reg.Counter(Component, id, "future_epoch_drops"),
		staleEpochAcks:   reg.Counter(Component, id, "stale_epoch_acks"),
		ackedAsDropped:   reg.Counter(Component, id, "acked_as_dropped"),
		epochCommits:     reg.Counter(Component, id, "epoch_commits"),
		quiesceReqs:      reg.Counter(Component, id, "quiesce_requests"),
		headerRewrites:   reg.Counter(Component, id, "header_rewrites"),
		fwdBeforeFull:    reg.Counter(Component, id, "forwards_before_full"),
		fanout:           reg.Histogram(Component, id, "fanout"),
		ackLatencyNs:     reg.Histogram(Component, id, "ack_latency_ns"),
	}
}
