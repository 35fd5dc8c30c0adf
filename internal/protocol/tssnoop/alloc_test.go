package tssnoop

import (
	"testing"

	"tsnoop/internal/cache"
	"tsnoop/internal/coherence"
	"tsnoop/internal/obs"
	"tsnoop/internal/sim"
	"tsnoop/internal/sim/simtest"
	"tsnoop/internal/stats"
	"tsnoop/internal/timing"
	"tsnoop/internal/topology"
)

// TestMissAllocs pins the allocation-free steady state of a full
// timestamp-snooping miss on every address-network handler. Each case
// rotates accesses to one block among nodes so that every access
// misses: broadcast or multicast, global ordering, foreign snoops,
// memory-side owner update, data-network delivery, and MSHR completion.
// Once the block's memory state is warm, the whole path must not
// allocate. The network is uninstrumented (Verify off), as experiment
// runs use, unless a case says otherwise.
func TestMissAllocs(t *testing.T) {
	type access struct {
		node int
		op   coherence.Op
	}
	cases := []struct {
		name   string
		mutate func(*Options)
		ops    []access
		// covered counts the events of the path the case covers; the
		// measured misses must add to it.
		covered func(*stats.Run) int64
	}{{
		// Two nodes ping-pong stores: every access is a cache-to-cache
		// GETX miss through the ordered handler.
		name: "store ping-pong",
		ops:  []access{{0, coherence.Store}, {1, coherence.Store}},
	}, {
		// The same under Verify: the ordering checks read tsnet's side
		// table, and the handoffs the nodes would ignore still run, to
		// check that they do nothing.
		name:   "store ping-pong verified",
		mutate: func(o *Options) { o.Net.Verify = true },
		ops:    []access{{0, coherence.Store}, {1, coherence.Store}},
	}, {
		// Nodes holding the block in I consume the GETX on arrival: the
		// peek handler's path.
		name:    "early processing",
		mutate:  func(o *Options) { o.EarlyProcessing = true },
		ops:     []access{{0, coherence.Store}, {1, coherence.Store}},
		covered: func(r *stats.Run) int64 { return r.EarlyProcessed },
	}, {
		// Without owner prediction, node 1's multicast GETS misses owner
		// 0, so the home re-broadcasts it: the reinjected transaction.
		name: "multicast retry",
		mutate: func(o *Options) {
			o.Multicast = true
			o.PredictorSize = -1
		},
		ops:     []access{{0, coherence.Store}, {1, coherence.Load}},
		covered: func(r *stats.Run) int64 { return r.Retries },
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := topology.MustButterfly(4)
			k := sim.NewKernel()
			run := &stats.Run{}
			opts := DefaultOptions()
			opts.Net.Verify = false
			if tc.mutate != nil {
				tc.mutate(&opts)
			}
			p := New(k, topo, timing.Default(), cache.DefaultConfig(), run, nil, opts)
			k.RunUntil(100 * sim.Nanosecond)

			const block = coherence.Block(42)
			done, hits := false, 0
			doneFn := func(r coherence.AccessResult) {
				done = true
				if r.Hit {
					hits++
				}
			}
			next := 0
			miss := func() {
				done = false
				a := tc.ops[next]
				p.Access(a.node, a.op, block, doneFn)
				next = (next + 1) % len(tc.ops)
				simtest.RunWhile(t, k, 20*sim.Microsecond, "miss incomplete", func() bool { return !done })
			}
			// Warm up: touch the block from every node of the rotation.
			for i := 0; i < 8; i++ {
				miss()
			}

			var before int64
			if tc.covered != nil {
				before = tc.covered(run)
			}
			if allocs := testing.AllocsPerRun(200, miss); allocs != 0 {
				t.Errorf("steady-state TS-Snoop miss allocates %v/op, want 0", allocs)
			}
			if hits != 0 {
				t.Errorf("%d accesses hit, want every access to miss", hits)
			}
			if tc.covered != nil && tc.covered(run) == before {
				t.Error("the measured misses never took the covered path")
			}
		})
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
	p := New(k, topo, timing.Default(), cache.DefaultConfig(), run, nil, opts)
	k.RunUntil(100 * sim.Nanosecond)

	const block = coherence.Block(42)
	done := false
	doneFn := func(coherence.AccessResult) { done = true }
	node := 0
	miss := func() {
		done = false
		p.Access(node, coherence.Store, block, doneFn)
		node = 1 - node
		simtest.RunWhile(t, k, 20*sim.Microsecond, "miss incomplete", func() bool { return !done })
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
	p := New(k, topo, timing.Default(), cache.DefaultConfig(), run, nil, opts)
	k.RunUntil(100 * sim.Nanosecond)

	const block = coherence.Block(7)
	done := false
	doneFn := func(coherence.AccessResult) { done = true }
	access := func(op coherence.Op) {
		done = false
		p.Access(3, op, block, doneFn)
		simtest.RunWhile(t, k, 20*sim.Microsecond, "access incomplete", func() bool { return !done })
	}
	access(coherence.Store) // install the block in M
	access(coherence.Store)

	if allocs := testing.AllocsPerRun(200, func() { access(coherence.Store) }); allocs != 0 {
		t.Errorf("steady-state L2 hit allocates %v/op, want 0", allocs)
	}
}
