package tsnet

import (
	"testing"

	"tsnoop/internal/obs"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/topology"
)

// TestBroadcastAllocs pins the allocation-free steady state of the
// address network: an uncontended broadcast — injection, 21 link
// deliveries, 16 reorder insertions, ordered handler handoffs, and the
// token traffic interleaved with it — must not allocate once the
// backing arrays are warm. Uninstrumented configuration
// (Verify off), as experiment runs use.
func TestBroadcastAllocs(t *testing.T) {
	topo := topology.MustButterfly(4)
	k := sim.NewKernel()
	run := &stats.Run{}
	cfg := DefaultConfig()
	cfg.Verify = false
	net := New(k, topo, cfg, &run.Traffic, run)
	delivered := 0
	for ep := 0; ep < topo.Nodes(); ep++ {
		net.Register(ep, func(int, uint64, any, sim.Time) { delivered++ }, nil)
	}
	net.Start()
	k.RunUntil(100 * sim.Nanosecond)
	// Warm up: a few broadcasts size the batches' item slices, the
	// reorder heaps, and the endpoint outboxes.
	src := 0
	for i := 0; i < 8; i++ {
		want := delivered + topo.Nodes()
		net.Inject(src, nil)
		src = (src + 1) % topo.Nodes()
		k.RunWhile(func() bool { return delivered < want })
	}

	allocs := testing.AllocsPerRun(200, func() {
		want := delivered + topo.Nodes()
		net.Inject(src, nil)
		src = (src + 1) % topo.Nodes()
		k.RunWhile(func() bool { return delivered < want })
	})
	if allocs != 0 {
		t.Errorf("steady-state broadcast allocates %v/op, want 0", allocs)
	}
}

// TestBroadcastAllocsWithProbe pins the probes-on budget for the
// address network: with a telemetry probe attached (and its dense
// per-link state sized at New), the steady-state broadcast must still
// not allocate — every probe recorder is integer arithmetic over
// storage allocated once at build time.
func TestBroadcastAllocsWithProbe(t *testing.T) {
	topo := topology.MustButterfly(4)
	k := sim.NewKernel()
	probe := obs.NewProbe()
	k.SetProbe(probe)
	run := &stats.Run{}
	cfg := DefaultConfig()
	cfg.Verify = false
	net := New(k, topo, cfg, &run.Traffic, run)
	delivered := 0
	for ep := 0; ep < topo.Nodes(); ep++ {
		net.Register(ep, func(int, uint64, any, sim.Time) { delivered++ }, nil)
	}
	net.Start()
	k.RunUntil(100 * sim.Nanosecond)
	src := 0
	for i := 0; i < 8; i++ {
		want := delivered + topo.Nodes()
		net.Inject(src, nil)
		src = (src + 1) % topo.Nodes()
		k.RunWhile(func() bool { return delivered < want })
	}

	allocs := testing.AllocsPerRun(200, func() {
		want := delivered + topo.Nodes()
		net.Inject(src, nil)
		src = (src + 1) % topo.Nodes()
		k.RunWhile(func() bool { return delivered < want })
	})
	if allocs != 0 {
		t.Errorf("instrumented steady-state broadcast allocates %v/op, want 0", allocs)
	}
}

// TestBroadcastAllocsTraced pins the spans-on budget for the address
// network: with lifecycle span capture enabled (addr_flight and
// reorder_dwell per broadcast, into a pre-sized ring), the steady-state
// broadcast must still allocate nothing.
func TestBroadcastAllocsTraced(t *testing.T) {
	topo := topology.MustButterfly(4)
	k := sim.NewKernel()
	probe := obs.NewProbe()
	probe.EnableSpans(obs.NewSpanLog(1 << 12))
	k.SetProbe(probe)
	run := &stats.Run{}
	cfg := DefaultConfig()
	cfg.Verify = false
	net := New(k, topo, cfg, &run.Traffic, run)
	delivered := 0
	for ep := 0; ep < topo.Nodes(); ep++ {
		net.Register(ep, func(int, uint64, any, sim.Time) { delivered++ }, nil)
	}
	net.Start()
	k.RunUntil(100 * sim.Nanosecond)
	src := 0
	for i := 0; i < 8; i++ {
		want := delivered + topo.Nodes()
		net.Inject(src, nil)
		src = (src + 1) % topo.Nodes()
		k.RunWhile(func() bool { return delivered < want })
	}

	allocs := testing.AllocsPerRun(200, func() {
		want := delivered + topo.Nodes()
		net.Inject(src, nil)
		src = (src + 1) % topo.Nodes()
		k.RunWhile(func() bool { return delivered < want })
	})
	if allocs != 0 {
		t.Errorf("span-traced steady-state broadcast allocates %v/op, want 0", allocs)
	}
}

// TestContendedBufferCapacityStabilizes pins the backing-array reuse of
// the switch transaction buffers and endpoint reorder queues: under
// sustained contended load, the capacities reached after a warm-up burst
// must not grow across many further identical bursts (the pre-rewrite
// slice-splice and heap pop leaked capacity growth on long runs).
func TestContendedBufferCapacityStabilizes(t *testing.T) {
	topo := topology.MustButterfly(4)
	k := sim.NewKernel()
	run := &stats.Run{}
	cfg := DefaultConfig()
	cfg.Verify = false
	cfg.Contention = true
	net := New(k, topo, cfg, &run.Traffic, run)
	delivered := 0
	for ep := 0; ep < topo.Nodes(); ep++ {
		net.Register(ep, func(int, uint64, any, sim.Time) { delivered++ }, nil)
	}
	net.Start()
	k.RunUntil(100 * sim.Nanosecond)

	burst := func() {
		want := delivered + 6*topo.Nodes()
		for j := 0; j < 6; j++ {
			net.Inject((j*5)%topo.Nodes(), nil)
		}
		k.RunWhile(func() bool { return delivered < want })
	}
	for i := 0; i < 10; i++ {
		burst()
	}
	caps := func() (bufCap, queueCap int) {
		for i := range net.switches {
			bufCap += cap(net.switches[i].buffered)
		}
		for i := range net.endpoints {
			queueCap += cap(net.endpoints[i].queue.h)
		}
		return
	}
	b0, q0 := caps()
	for i := 0; i < 200; i++ {
		burst()
	}
	b1, q1 := caps()
	if b1 > b0 || q1 > q0 {
		t.Errorf("capacities grew under sustained load: buffers %d -> %d, queues %d -> %d", b0, b1, q0, q1)
	}

	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Errorf("steady-state contended burst allocates %v/op, want 0", allocs)
	}
}
