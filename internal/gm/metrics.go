package gm

import "repro/internal/metrics"

// Component is the metrics component name for the GM protocol layer.
const Component = "gm"

// instruments are the protocol counters for one NIC, cached so hot paths
// do no registry lookups. When no registry is wired every field is nil and
// updates are no-ops.
type instruments struct {
	dataSent         *metrics.Counter
	dataReceived     *metrics.Counter
	acksSent         *metrics.Counter
	acksReceived     *metrics.Counter
	acksSuppressed   *metrics.Counter
	acksPiggybacked  *metrics.Counter
	retransmits      *metrics.Counter
	timeouts         *metrics.Counter
	duplicates       *metrics.Counter
	oooDrops         *metrics.Counter
	noTokenDrops     *metrics.Counter
	nacksSent        *metrics.Counter
	nacksReceived    *metrics.Counter
	directedReceived *metrics.Counter
	directedRefused  *metrics.Counter
	tokenWaitNs      *metrics.Histogram
}

func (n *NIC) initMetrics(reg *metrics.Registry) {
	id := int(n.ID())
	n.m = instruments{
		dataSent:         reg.Counter(Component, id, "data_sent"),
		dataReceived:     reg.Counter(Component, id, "data_received"),
		acksSent:         reg.Counter(Component, id, "acks_sent"),
		acksReceived:     reg.Counter(Component, id, "acks_received"),
		acksSuppressed:   reg.Counter(Component, id, "acks_suppressed"),
		acksPiggybacked:  reg.Counter(Component, id, "acks_piggybacked"),
		retransmits:      reg.Counter(Component, id, "retransmits"),
		timeouts:         reg.Counter(Component, id, "timeouts"),
		duplicates:       reg.Counter(Component, id, "duplicates"),
		oooDrops:         reg.Counter(Component, id, "out_of_order_drops"),
		noTokenDrops:     reg.Counter(Component, id, "no_token_drops"),
		nacksSent:        reg.Counter(Component, id, "nacks_sent"),
		nacksReceived:    reg.Counter(Component, id, "nacks_received"),
		directedReceived: reg.Counter(Component, id, "directed_received"),
		directedRefused:  reg.Counter(Component, id, "directed_refused"),
		tokenWaitNs:      reg.Histogram(Component, id, "token_wait_ns"),
	}
}
