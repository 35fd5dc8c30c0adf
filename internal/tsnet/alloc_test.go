package tsnet

import (
	"testing"
	"unsafe"

	"tsnoop/internal/obs"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/topology"
)

// broadcastAllocs returns the allocations per steady-state broadcast on
// the 16-node butterfly, with Verify as given and probe attached to the
// kernel when non-nil: injection, 21 link deliveries, 16 reorder
// insertions, the ordered handler calls, and the token traffic
// interleaved with them.
func broadcastAllocs(verify bool, probe *obs.Probe) float64 {
	topo := topology.MustButterfly(4)
	k := sim.NewKernel()
	if probe != nil {
		k.SetProbe(probe)
	}
	run := &stats.Run{}
	cfg := DefaultConfig()
	cfg.Verify = verify
	net := New(k, topo, cfg, &run.Traffic, run)
	delivered := 0
	for ep := 0; ep < topo.Nodes(); ep++ {
		net.Register(ep, func(int, uint64, any, sim.Time) { delivered++ }, nil)
	}
	net.Start()
	k.RunUntil(100 * sim.Nanosecond)
	src := 0
	broadcast := func() {
		want := delivered + topo.Nodes()
		net.Inject(src, nil)
		src = (src + 1) % topo.Nodes()
		k.RunWhile(func() bool { return delivered < want })
	}
	// Warm up: a few broadcasts size the batches' item slices and the
	// reorder heaps.
	for i := 0; i < 8; i++ {
		broadcast()
	}
	return testing.AllocsPerRun(200, broadcast)
}

// TestBroadcastAllocs pins the allocation-free steady state of the
// address network once the backing arrays are warm, uninstrumented
// (Verify off), as experiment runs use.
func TestBroadcastAllocs(t *testing.T) {
	if allocs := broadcastAllocs(false, nil); allocs != 0 {
		t.Errorf("steady-state broadcast allocates %v/op, want 0", allocs)
	}
}

// TestBroadcastAllocsVerified pins the Verify budget: the ordering-time
// consensus and formula checks read a per-source side table sized at
// New, so a checked broadcast allocates nothing either.
func TestBroadcastAllocsVerified(t *testing.T) {
	if allocs := broadcastAllocs(true, nil); allocs != 0 {
		t.Errorf("verified steady-state broadcast allocates %v/op, want 0", allocs)
	}
}

// TestBroadcastAllocsWithProbe pins the probes-on budget for the
// address network: with a telemetry probe attached (and its dense
// per-link state sized at New), the steady-state broadcast must still
// not allocate — every probe recorder is integer arithmetic over
// storage allocated once at build time.
func TestBroadcastAllocsWithProbe(t *testing.T) {
	if allocs := broadcastAllocs(false, obs.NewProbe()); allocs != 0 {
		t.Errorf("instrumented steady-state broadcast allocates %v/op, want 0", allocs)
	}
}

// TestBroadcastAllocsTraced pins the spans-on budget for the address
// network: with lifecycle span capture enabled (addr_flight and
// reorder_dwell per broadcast, into a pre-sized ring), the steady-state
// broadcast must still allocate nothing.
func TestBroadcastAllocsTraced(t *testing.T) {
	probe := obs.NewProbe()
	probe.EnableSpans(obs.NewSpanLog(1 << 12))
	if allocs := broadcastAllocs(false, probe); allocs != 0 {
		t.Errorf("span-traced steady-state broadcast allocates %v/op, want 0", allocs)
	}
}

// A copy of a 24 B payload such as TS-Snoop's addrTxn (two words, an
// int32, an int16 and two bytes) rides a 48 B txn in a 64 B hop item,
// which Go copies inline rather than through runtime.duffcopy.
func TestHopItemSize(t *testing.T) {
	type payload struct {
		block, mask uint64
		idx         int32
		requester   int16
		kind, flag  uint8
	}
	for _, c := range []struct {
		what      string
		got, want uintptr
	}{
		{"payload", unsafe.Sizeof(payload{}), 24},
		{"txn", unsafe.Sizeof(txn[payload]{}), 48},
		{"hop", unsafe.Sizeof(hop[payload]{}), 64},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.what, c.got, c.want)
		}
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
