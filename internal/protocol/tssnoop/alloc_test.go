package tssnoop

import (
	"testing"

	"tsnoop/internal/cache"
	"tsnoop/internal/coherence"
	"tsnoop/internal/obs"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/timing"
	"tsnoop/internal/topology"
)

// TestMissAllocs pins the allocation-free steady state of a full
// timestamp-snooping miss: two nodes ping-pong stores to one block, so
// every access is a cache-to-cache GETX miss — broadcast, global
// ordering, foreign snoop supplying the data, memory-side owner update,
// data-network delivery, and MSHR completion. Once the block's memory
// state and the address-payload free list are warm, the whole path must not
// allocate. Uninstrumented network (Verify off), as experiment runs use.
func TestMissAllocs(t *testing.T) {
	topo := topology.MustButterfly(4)
	k := sim.NewKernel()
	run := &stats.Run{}
	opts := DefaultOptions()
	opts.Net.Verify = false
	p := New(k, topo, timing.Default(), cache.DefaultConfig(), run, opts)
	k.RunUntil(100 * sim.Nanosecond)

	const block = coherence.Block(42)
	done := false
	doneFn := func(coherence.AccessResult) { done = true }
	node := 0
	miss := func() {
		done = false
		p.Access(node, coherence.Store, block, doneFn)
		node = 1 - node
		k.RunWhile(func() bool { return !done })
	}
	// Warm up: touch the block from both nodes, fill the free lists.
	for i := 0; i < 8; i++ {
		miss()
	}

	if allocs := testing.AllocsPerRun(200, miss); allocs != 0 {
		t.Errorf("steady-state TS-Snoop miss allocates %v/op, want 0", allocs)
	}
}

// TestMissAllocsTraced pins the probes-AND-spans-on budget for the same
// full miss path: with lifecycle span recording enabled (per-phase
// histograms plus a pre-sized raw-span ring), the steady state must
// still not allocate — every Probe.Span call is integer arithmetic into
// fixed arrays and a ring overwrite.
func TestMissAllocsTraced(t *testing.T) {
	topo := topology.MustButterfly(4)
	k := sim.NewKernel()
	probe := obs.NewProbe()
	probe.EnableSpans(obs.NewSpanLog(1 << 12))
	k.SetProbe(probe)
	run := &stats.Run{}
	opts := DefaultOptions()
	opts.Net.Verify = false
	p := New(k, topo, timing.Default(), cache.DefaultConfig(), run, opts)
	k.RunUntil(100 * sim.Nanosecond)

	const block = coherence.Block(42)
	done := false
	doneFn := func(coherence.AccessResult) { done = true }
	node := 0
	miss := func() {
		done = false
		p.Access(node, coherence.Store, block, doneFn)
		node = 1 - node
		k.RunWhile(func() bool { return !done })
	}
	for i := 0; i < 8; i++ {
		miss()
	}

	if allocs := testing.AllocsPerRun(200, miss); allocs != 0 {
		t.Errorf("span-traced steady-state TS-Snoop miss allocates %v/op, want 0", allocs)
	}
}

// TestHitAllocs pins the L2-hit fast path: lookup, oracle observation,
// and the delayed completion through the core's hit batch.
func TestHitAllocs(t *testing.T) {
	topo := topology.MustButterfly(4)
	k := sim.NewKernel()
	run := &stats.Run{}
	opts := DefaultOptions()
	opts.Net.Verify = false
	p := New(k, topo, timing.Default(), cache.DefaultConfig(), run, opts)
	k.RunUntil(100 * sim.Nanosecond)

	const block = coherence.Block(7)
	done := false
	doneFn := func(coherence.AccessResult) { done = true }
	access := func(op coherence.Op) {
		done = false
		p.Access(3, op, block, doneFn)
		k.RunWhile(func() bool { return !done })
	}
	access(coherence.Store) // install the block in M
	access(coherence.Store)

	if allocs := testing.AllocsPerRun(200, func() { access(coherence.Store) }); allocs != 0 {
		t.Errorf("steady-state L2 hit allocates %v/op, want 0", allocs)
	}
}
