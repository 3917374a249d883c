package lanai

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func testNIC(t *testing.T) (*sim.Engine, *NIC, *NIC) {
	t.Helper()
	eng := sim.NewEngine()
	net := fabric.SingleSwitch(eng, 2, fabric.DefaultLinkParams())
	a := New(eng, net.Iface(0), DefaultParams())
	b := New(eng, net.Iface(1), DefaultParams())
	reg := metrics.New()
	a.SetMetrics(reg)
	b.SetMetrics(reg)
	a.RxDispatch = func(p *fabric.Packet) {}
	b.RxDispatch = func(p *fabric.Packet) {}
	return eng, a, b
}

// counter reads one of the NIC's hardware counters from its registry.
func counter(n *NIC, name string) uint64 {
	return n.Registry().Snapshot().Counter(Component, int(n.ID), name)
}

func TestCPUSerializesWork(t *testing.T) {
	eng, a, _ := testNIC(t)
	var done []sim.Time
	eng.At(0, func() {
		a.CPUDo(1000, func() { done = append(done, eng.Now()) })
		a.CPUDo(1000, func() { done = append(done, eng.Now()) })
	})
	eng.Run()
	if len(done) != 2 || done[0] != 1000 || done[1] != 2000 {
		t.Fatalf("CPU completions %v, want [1000 2000]", done)
	}
}

func TestDMAEnginesRunConcurrentlyWithCPU(t *testing.T) {
	eng, a, _ := testNIC(t)
	var cpuDone, dmaDone sim.Time
	eng.At(0, func() {
		a.CPUDo(5000, func() { cpuDone = eng.Now() })
		a.HostToNIC(1000, func() { dmaDone = eng.Now() })
	})
	eng.Run()
	if cpuDone != 5000 {
		t.Fatalf("cpu done at %v, want 5000", cpuDone)
	}
	want := a.DMATime(1000)
	if dmaDone != want {
		t.Fatalf("dma done at %v, want %v (must not queue behind CPU)", dmaDone, want)
	}
}

func TestDMATimeModel(t *testing.T) {
	_, a, _ := testNIC(t)
	got := a.DMATime(1000)
	want := a.P.DMAStartup + sim.PerByte(a.P.PCINsPerByte, 1000)
	if got != want {
		t.Fatalf("DMATime(1000) = %v, want %v", got, want)
	}
	if a.DMATime(0) != a.P.DMAStartup {
		t.Fatal("zero-byte DMA must still pay startup")
	}
}

func TestHostEventQueueFIFO(t *testing.T) {
	eng, a, _ := testNIC(t)
	eng.At(0, func() {
		a.PostHostEvent("first")
		a.PostHostEvent("second")
	})
	eng.Run()
	ev1, ok1 := a.PollHostEvent()
	ev2, ok2 := a.PollHostEvent()
	_, ok3 := a.PollHostEvent()
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("poll results %v %v %v, want true true false", ok1, ok2, ok3)
	}
	if ev1 != "first" || ev2 != "second" {
		t.Fatalf("events %v %v out of order", ev1, ev2)
	}
	if got := counter(a, "host_events"); got != 2 {
		t.Fatalf("host_events = %d, want 2", got)
	}
}

func TestWaitHostEventBlocksUntilPosted(t *testing.T) {
	eng, a, _ := testNIC(t)
	var got any
	var at sim.Time
	eng.Spawn("host", func(p *sim.Proc) {
		got = a.WaitHostEvent(p)
		at = p.Now()
	})
	eng.At(500, func() { a.PostHostEvent("wakeup") })
	eng.Run()
	if got != "wakeup" {
		t.Fatalf("got %v, want wakeup", got)
	}
	if at < 500 {
		t.Fatalf("host woke at %v, before the event was posted", at)
	}
}

func TestBufPoolExhaustionQueuesFIFO(t *testing.T) {
	eng := sim.NewEngine()
	p := NewBufPool(eng, "test", 2)
	var granted []int
	var bufs []*Buf
	hold := func(id int) {
		p.Acquire(func(b *Buf) {
			granted = append(granted, id)
			bufs = append(bufs, b)
		})
	}
	eng.At(0, func() {
		hold(1)
		hold(2)
		hold(3)
		hold(4)
	})
	eng.At(100, func() { bufs[0].Release() })
	eng.At(200, func() { bufs[1].Release() })
	eng.Run()
	want := []int{1, 2, 3, 4}
	if len(granted) != 4 {
		t.Fatalf("granted %v, want %v", granted, want)
	}
	for i := range want {
		if granted[i] != want[i] {
			t.Fatalf("grant order %v, want %v", granted, want)
		}
	}
	if p.MaxQueued != 2 {
		t.Fatalf("MaxQueued = %d, want 2", p.MaxQueued)
	}
}

func TestBufPoolTryAcquire(t *testing.T) {
	eng := sim.NewEngine()
	p := NewBufPool(eng, "rx", 1)
	b, ok := p.TryAcquire()
	if !ok {
		t.Fatal("TryAcquire failed on full pool")
	}
	if _, ok := p.TryAcquire(); ok {
		t.Fatal("TryAcquire succeeded on empty pool")
	}
	b.Release()
	if p.Free() != 1 {
		t.Fatalf("free = %d after release, want 1", p.Free())
	}
}

func TestBufPoolDoubleReleasePanics(t *testing.T) {
	eng := sim.NewEngine()
	p := NewBufPool(eng, "x", 1)
	b, _ := p.TryAcquire()
	b.Release()
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	b.Release()
}

func TestBufPoolReleaseChainDoesNotStarve(t *testing.T) {
	// A release that grants to a waiter which immediately releases again
	// must serve the whole chain without recursion blowups.
	eng := sim.NewEngine()
	p := NewBufPool(eng, "chain", 1)
	served := 0
	var first *Buf
	eng.At(0, func() {
		p.Acquire(func(b *Buf) { first = b })
		for i := 0; i < 1000; i++ {
			p.Acquire(func(b *Buf) {
				served++
				b.Release()
			})
		}
	})
	eng.At(10, func() { first.Release() })
	eng.Run()
	if served != 1000 {
		t.Fatalf("served %d waiters, want 1000", served)
	}
}

func TestRxNoBufferAccounting(t *testing.T) {
	_, a, _ := testNIC(t)
	a.CountRxNoBuffer()
	a.CountRxNoBuffer()
	if got := counter(a, "rx_nobuffer"); got != 2 {
		t.Fatalf("rx_nobuffer = %d, want 2", got)
	}
}

func TestHostPostLatency(t *testing.T) {
	eng, a, _ := testNIC(t)
	var seen sim.Time
	eng.At(0, func() { a.HostPost(func() { seen = eng.Now() }) })
	eng.Run()
	if seen != a.P.HostPostLatency {
		t.Fatalf("descriptor visible at %v, want %v", seen, a.P.HostPostLatency)
	}
}

func TestWirePacketReachesRxDispatch(t *testing.T) {
	eng, a, b := testNIC(t)
	var got *fabric.Packet
	b.RxDispatch = func(p *fabric.Packet) { got = p }
	eng.At(0, func() {
		a.Ifc.Inject(&fabric.Packet{Src: 0, Dst: 1, Size: 128, Payload: "hello"})
	})
	eng.Run()
	if got == nil || got.Payload != "hello" {
		t.Fatalf("rx dispatch got %+v", got)
	}
}

func TestBufPoolAccessors(t *testing.T) {
	eng := sim.NewEngine()
	p := NewBufPool(eng, "acc", 3)
	if p.Cap() != 3 || p.Free() != 3 || p.Queued() != 0 {
		t.Fatalf("fresh pool cap=%d free=%d queued=%d", p.Cap(), p.Free(), p.Queued())
	}
	b, _ := p.TryAcquire()
	p.Acquire(func(*Buf) {})
	p.Acquire(func(*Buf) {})
	p.Acquire(func(*Buf) {}) // queues
	if p.Queued() != 1 {
		t.Fatalf("queued = %d, want 1", p.Queued())
	}
	b.Release()
	eng.Run()
	if p.Queued() != 0 {
		t.Fatalf("queued = %d after release, want 0", p.Queued())
	}
}

func TestBufPoolInvalidSizePanics(t *testing.T) {
	eng := sim.NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("zero-buffer pool accepted")
		}
	}()
	NewBufPool(eng, "bad", 0)
}

func TestNICToHostUsesRDMA(t *testing.T) {
	eng, a, _ := testNIC(t)
	var done sim.Time
	eng.At(0, func() { a.NICToHost(1000, func() { done = eng.Now() }) })
	eng.Run()
	if done != a.DMATime(1000) {
		t.Fatalf("RDMA completed at %v, want %v", done, a.DMATime(1000))
	}
	if a.RDMA.Requests() != 1 {
		t.Fatal("RDMA facility not used")
	}
}

func TestPendingHostEvents(t *testing.T) {
	eng, a, _ := testNIC(t)
	eng.At(0, func() {
		a.PostHostEvent(1)
		a.PostHostEvent(2)
	})
	eng.Run()
	if a.PendingHostEvents() != 2 {
		t.Fatalf("pending = %d, want 2", a.PendingHostEvents())
	}
	a.PollHostEvent()
	if a.PendingHostEvents() != 1 {
		t.Fatalf("pending = %d after poll, want 1", a.PendingHostEvents())
	}
}

func TestUnattachedNICPanicsOnDelivery(t *testing.T) {
	eng := sim.NewEngine()
	net := fabric.SingleSwitch(eng, 2, fabric.DefaultLinkParams())
	New(eng, net.Iface(0), DefaultParams())
	New(eng, net.Iface(1), DefaultParams()) // no RxDispatch installed
	eng.At(0, func() {
		net.Iface(0).Inject(&fabric.Packet{Src: 0, Dst: 1, Size: 16})
	})
	defer func() {
		if recover() == nil {
			t.Error("delivery to firmware-less NIC did not panic")
		}
	}()
	eng.Run()
}
