// Package lanai models the hardware resources of a Myrinet NIC built
// around a LANai 9.1 processor: a slow serialized NIC processor, SDMA
// (host→NIC) and RDMA (NIC→host) engines that run concurrently with it,
// finite on-board packet-buffer SRAM, and the host interface (posted
// descriptors in, DMA'd event records out).
//
// The package provides mechanism only; the GM firmware logic that runs on
// these resources lives in package gm, and the paper's multicast extension
// in package core. Keeping them apart mirrors the real system: the authors
// changed firmware, not silicon.
package lanai

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Params describe one NIC's hardware characteristics.
type Params struct {
	// SendBuffers and RecvBuffers are the number of MTU-sized packet
	// buffers carved from NIC SRAM for each direction.
	SendBuffers int
	RecvBuffers int
	// PCINsPerByte is the DMA cost per byte across the host's PCI bus
	// (2.2 ≈ 450 MB/s on the paper's 66 MHz/64-bit bus).
	PCINsPerByte float64
	// DMAStartup is the fixed setup cost of one DMA transaction.
	DMAStartup sim.Time
	// HostPostLatency is the time for a host PIO-posted descriptor to
	// become visible to the NIC processor.
	HostPostLatency sim.Time
	// EventPostCost is the NIC-side cost of DMA-ing an event record into
	// the host's receive queue.
	EventPostCost sim.Time
}

// DefaultParams returns LANai-9.1-era hardware characteristics.
func DefaultParams() Params {
	return Params{
		SendBuffers:     16,
		RecvBuffers:     32,
		PCINsPerByte:    2.2,
		DMAStartup:      700 * sim.Nanosecond,
		HostPostLatency: 250 * sim.Nanosecond,
		EventPostCost:   350 * sim.Nanosecond,
	}
}

// NIC is the hardware model for one network interface.
type NIC struct {
	Eng *sim.Engine
	ID  fabric.NodeID
	P   Params

	// CPU is the LANai processor: every firmware action serializes here.
	CPU *sim.Facility
	// SDMA moves bytes host→NIC; RDMA moves bytes NIC→host. They operate
	// concurrently with the CPU and with each other.
	SDMA *sim.Facility
	RDMA *sim.Facility

	Ifc      *fabric.Iface
	SendBufs *BufPool
	RecvBufs *BufPool

	// RxDispatch is installed by the firmware; it receives every packet
	// that arrives from the wire.
	RxDispatch func(*fabric.Packet)

	// paused, when set, makes the NIC deaf: packets arriving from the wire
	// are discarded before the firmware sees them, as during a firmware
	// reload. Reliability above recovers the lost traffic after Resume.
	paused bool

	hostEvents []any
	// pendingPost stages event records whose RDMA is still in flight;
	// deliverHostEvent (via the pre-bound postFn) pops them FIFO, so
	// posting an event schedules no per-event closure.
	pendingPost []any
	postFn      func()
	hostWaiter  *sim.Waiter

	// Cached instruments, set by SetMetrics; nil (no-op) otherwise.
	reg            *metrics.Registry
	mCPUBusyNs     *metrics.Counter
	mCPUBacklogNs  *metrics.Gauge
	mSDMABusyNs    *metrics.Counter
	mRDMABusyNs    *metrics.Counter
	mHostEvents    *metrics.Counter
	mHostQueue     *metrics.Gauge
	mRxNoBuffer    *metrics.Counter
	mRxPausedDrops *metrics.Counter
}

// New attaches a NIC model to a network interface.
func New(eng *sim.Engine, ifc *fabric.Iface, p Params) *NIC {
	n := &NIC{
		Eng:        eng,
		ID:         ifc.ID(),
		P:          p,
		CPU:        sim.NewFacility(eng, fmt.Sprintf("nic%d.cpu", ifc.ID())),
		SDMA:       sim.NewFacility(eng, fmt.Sprintf("nic%d.sdma", ifc.ID())),
		RDMA:       sim.NewFacility(eng, fmt.Sprintf("nic%d.rdma", ifc.ID())),
		Ifc:        ifc,
		SendBufs:   NewBufPool(eng, fmt.Sprintf("nic%d.sendbufs", ifc.ID()), p.SendBuffers),
		RecvBufs:   NewBufPool(eng, fmt.Sprintf("nic%d.recvbufs", ifc.ID()), p.RecvBuffers),
		hostWaiter: sim.NewWaiter(eng),
	}
	n.postFn = n.deliverHostEvent
	ifc.Deliver = func(pkt *fabric.Packet) {
		if n.paused {
			n.mRxPausedDrops.Inc()
			return
		}
		if n.RxDispatch == nil {
			panic(fmt.Sprintf("lanai: nic %v has no firmware attached", n.ID))
		}
		n.RxDispatch(pkt)
	}
	return n
}

// CountRxNoBuffer records a packet dropped for want of a receive buffer.
func (n *NIC) CountRxNoBuffer() {
	n.mRxNoBuffer.Inc()
}

// Pause makes the NIC stop receiving: every packet arriving from the wire
// is silently discarded until Resume, modelling a firmware reload or a hung
// NIC processor. Host-posted work and already-scheduled DMA continue — only
// the wire-facing receive path goes deaf.
func (n *NIC) Pause() { n.paused = true }

// Resume re-enables packet reception after a Pause.
func (n *NIC) Resume() { n.paused = false }

// Paused reports whether the NIC is currently discarding arrivals.
func (n *NIC) Paused() bool { return n.paused }

// CPUDo serializes cost worth of work on the LANai processor and runs fn
// when it completes. The backlog gauge records (as a high-water mark) how
// far behind the serialized processor was when this task was queued — the
// simulation's analogue of task-queue depth.
func (n *NIC) CPUDo(cost sim.Time, fn func()) {
	if backlog := n.CPU.FreeAt() - n.Eng.Now(); backlog > 0 {
		n.mCPUBacklogNs.Set(int64(backlog))
	}
	n.mCPUBusyNs.AddInt(int64(cost))
	n.CPU.Do(cost, fn)
}

// DMATime reports the duration of one DMA of the given size.
func (n *NIC) DMATime(size int) sim.Time {
	return n.P.DMAStartup + sim.PerByte(n.P.PCINsPerByte, size)
}

// HostToNIC schedules an SDMA of size bytes and runs fn at completion.
func (n *NIC) HostToNIC(size int, fn func()) {
	d := n.DMATime(size)
	n.mSDMABusyNs.AddInt(int64(d))
	n.SDMA.Do(d, fn)
}

// NICToHost schedules an RDMA of size bytes and runs fn at completion.
func (n *NIC) NICToHost(size int, fn func()) {
	d := n.DMATime(size)
	n.mRDMABusyNs.AddInt(int64(d))
	n.RDMA.Do(d, fn)
}

// HostPost models the host posting a descriptor: after the PIO latency the
// NIC processor sees it and runs fn (fn typically charges CPU time).
func (n *NIC) HostPost(fn func()) {
	n.Eng.After(n.P.HostPostLatency, fn)
}

// PostHostEvent DMAs an event record to the host event queue and wakes any
// process blocked in WaitHostEvent. The RDMA engine carries the record.
func (n *NIC) PostHostEvent(ev any) {
	n.mRDMABusyNs.AddInt(int64(n.P.EventPostCost))
	n.pendingPost = append(n.pendingPost, ev)
	n.RDMA.Do(n.P.EventPostCost, n.postFn)
}

// deliverHostEvent completes one event-record DMA: the oldest staged
// record becomes visible to the host. The RDMA facility is FIFO and every
// record costs the same, so completions fire in posting order and the
// front of pendingPost is always the record whose DMA just finished.
func (n *NIC) deliverHostEvent() {
	ev := n.pendingPost[0]
	n.pendingPost[0] = nil
	n.pendingPost = n.pendingPost[1:]
	n.hostEvents = append(n.hostEvents, ev)
	n.mHostEvents.Inc()
	n.mHostQueue.Set(int64(len(n.hostEvents)))
	n.hostWaiter.WakeAll()
}

// PollHostEvent removes and returns the oldest pending host event.
func (n *NIC) PollHostEvent() (any, bool) {
	if len(n.hostEvents) == 0 {
		return nil, false
	}
	ev := n.hostEvents[0]
	n.hostEvents = n.hostEvents[1:]
	return ev, true
}

// WaitHostEvent blocks the calling process until an event is available,
// then returns it. This is the busy-poll receive loop of a GM host program
// (wall time spent here counts as host CPU time, as in the paper's skew
// measurements).
func (n *NIC) WaitHostEvent(p *sim.Proc) any {
	for {
		if ev, ok := n.PollHostEvent(); ok {
			return ev
		}
		n.hostWaiter.Wait(p)
	}
}

// PendingHostEvents reports the host-queue depth.
func (n *NIC) PendingHostEvents() int { return len(n.hostEvents) }
