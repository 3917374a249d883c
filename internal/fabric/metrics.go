package fabric

import "repro/internal/metrics"

// Component is the metrics component name for the fabric layer. Every
// backend shares it: the invariant checkers (chaos campaigns, membership
// scenarios) read injected/delivered/dropped/duplicated under this
// component regardless of which fabric carried the traffic.
const Component = "net"

// SetMetrics wires fabric instrumentation into reg. Instruments are cached
// on the Network and on each Link so the per-packet hot path performs no
// map lookups; with a nil registry every cached instrument is nil and each
// update is a no-op. Bytes and drops are attributed to the host endpoint
// of host-attached links (trunk links fall to the fabric pseudo node);
// serialization stalls are attributed to the vertex whose output port was
// busy — the injecting host, or the contended switch. PFC pause
// counts and pause time follow the stall attribution.
func (n *Network) SetMetrics(reg *metrics.Registry) {
	n.mInjected = reg.Counter(Component, metrics.NodeFabric, "injected")
	n.mDelivered = reg.Counter(Component, metrics.NodeFabric, "delivered")
	n.mDropped = reg.Counter(Component, metrics.NodeFabric, "dropped")
	n.mDuplicated = reg.Counter(Component, metrics.NodeFabric, "duplicated")
	n.mLinkBusyNs = reg.Counter(Component, metrics.NodeFabric, "link_busy_ns")
	for _, l := range n.links {
		switch {
		case l.from.host:
			h := int(l.from.hostID)
			l.mTxBytes = reg.Counter(Component, h, "uplink_tx_bytes")
			l.mDrops = reg.Counter(Component, h, "uplink_drops")
			l.mStallNs = reg.Counter(Component, h, "uplink_stall_ns")
			l.mContended = reg.Counter(Component, h, "uplink_contended")
			l.mPauses = reg.Counter(Component, h, "uplink_pfc_pauses")
			l.mPauseNs = reg.Counter(Component, h, "uplink_pfc_pause_ns")
		case l.to.host:
			h := int(l.to.hostID)
			l.mTxBytes = reg.Counter(Component, h, "downlink_tx_bytes")
			l.mDrops = reg.Counter(Component, h, "downlink_drops")
			l.mStallNs = reg.Counter(Component, l.from.idx, "switch_stall_ns")
			l.mContended = reg.Counter(Component, l.from.idx, "switch_contended")
			l.mPauses = reg.Counter(Component, l.from.idx, "switch_pfc_pauses")
			l.mPauseNs = reg.Counter(Component, l.from.idx, "switch_pfc_pause_ns")
		default:
			l.mTxBytes = reg.Counter(Component, metrics.NodeFabric, "trunk_tx_bytes")
			l.mDrops = reg.Counter(Component, metrics.NodeFabric, "trunk_drops")
			l.mStallNs = reg.Counter(Component, l.from.idx, "switch_stall_ns")
			l.mContended = reg.Counter(Component, l.from.idx, "switch_contended")
			l.mPauses = reg.Counter(Component, l.from.idx, "switch_pfc_pauses")
			l.mPauseNs = reg.Counter(Component, l.from.idx, "switch_pfc_pause_ns")
		}
	}
}
