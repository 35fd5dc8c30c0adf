package tssnoop

import (
	"fmt"
	"testing"
	"unsafe"

	"tsnoop/internal/cache"
	"tsnoop/internal/coherence"
	"tsnoop/internal/sim"
	"tsnoop/internal/sim/simtest"
	"tsnoop/internal/stats"
	"tsnoop/internal/timing"
	"tsnoop/internal/topology"
)

type env struct {
	k    *sim.Kernel
	p    *Protocol
	run  *stats.Run
	topo *topology.Topology
}

func newEnv(t *testing.T, topo *topology.Topology, mutate func(*Options)) *env {
	t.Helper()
	k := sim.NewKernel()
	run := &stats.Run{}
	opts := DefaultOptions()
	if mutate != nil {
		mutate(&opts)
	}
	// Small cache keeps eviction paths reachable in tests.
	cc := cache.Config{SizeBytes: 64 * 1024, Ways: 4, BlockBytes: 64}
	p := New(k, topo, timing.Default(), cc, run, nil, opts)
	return &env{k: k, p: p, run: run, topo: topo}
}

// runLimit bounds the simulated time of a stress run: each takes ~22 µs.
const runLimit = 200 * sim.Microsecond

// access drives one blocking access to completion and returns the result.
func (e *env) access(t *testing.T, node int, op coherence.Op, b coherence.Block) coherence.AccessResult {
	t.Helper()
	var res coherence.AccessResult
	doneAt := sim.Time(-1)
	e.p.Access(node, op, b, func(r coherence.AccessResult) {
		res = r
		doneAt = e.k.Now()
	})
	simtest.RunWhile(t, e.k, 20*sim.Microsecond, fmt.Sprintf("node %d %v %x incomplete", node, op, b),
		func() bool { return doneAt < 0 })
	return res
}

// settle lets in-flight writebacks and token traffic advance.
func (e *env) settle(d sim.Duration) { e.k.RunUntil(e.k.Now() + d) }

func TestColdMissFromMemoryLatencyButterfly(t *testing.T) {
	// Table 2: block from memory on the butterfly = Dnet + Dmem + Dnet =
	// 178 ns unloaded. Ordering adds at most a few ticks of slack.
	e := newEnv(t, topology.MustButterfly(4), nil)
	e.settle(200 * sim.Nanosecond)
	// Block 7 is homed at node 7; access from node 0.
	res := e.access(t, 0, coherence.Load, 7)
	if res.Hit {
		t.Fatal("cold access hit")
	}
	if res.Kind != stats.MissFromMemory {
		t.Fatalf("kind = %v, want memory", res.Kind)
	}
	if res.Latency < 178*sim.Nanosecond || res.Latency > 195*sim.Nanosecond {
		t.Fatalf("memory miss latency = %v, want ~178ns", res.Latency)
	}
}

func TestCacheToCacheLatencyButterfly(t *testing.T) {
	// Table 2: block from cache with timestamp snooping = Dnet + Dcache +
	// Dnet = 123 ns unloaded — roughly half the directory's 252 ns.
	e := newEnv(t, topology.MustButterfly(4), nil)
	e.settle(200 * sim.Nanosecond)
	e.access(t, 5, coherence.Store, 7) // node 5 takes M
	e.settle(200 * sim.Nanosecond)
	res := e.access(t, 0, coherence.Load, 7)
	if res.Kind != stats.MissCacheToCache {
		t.Fatalf("kind = %v, want cache-to-cache", res.Kind)
	}
	if res.Latency < 123*sim.Nanosecond || res.Latency > 140*sim.Nanosecond {
		t.Fatalf("c2c latency = %v, want ~123ns", res.Latency)
	}
}

func TestCacheToCacheLatencyTorus(t *testing.T) {
	e := newEnv(t, topology.MustTorus(4, 4), nil)
	e.settle(200 * sim.Nanosecond)
	e.access(t, 1, coherence.Store, 2)
	e.settle(200 * sim.Nanosecond)
	res := e.access(t, 0, coherence.Load, 2)
	if res.Kind != stats.MissCacheToCache {
		t.Fatalf("kind = %v", res.Kind)
	}
	// Unloaded mean is 93 ns; ordering delay for near neighbours adds up
	// to a few switch delays.
	if res.Latency < 60*sim.Nanosecond || res.Latency > 160*sim.Nanosecond {
		t.Fatalf("torus c2c latency = %v", res.Latency)
	}
}

func TestLoadHitAfterFill(t *testing.T) {
	e := newEnv(t, topology.MustButterfly(4), nil)
	e.settle(100 * sim.Nanosecond)
	e.access(t, 0, coherence.Load, 3)
	res := e.access(t, 0, coherence.Load, 3)
	if !res.Hit {
		t.Fatal("second load missed")
	}
	if res.Latency != timing.Default().L2Hit {
		t.Fatalf("hit latency = %v", res.Latency)
	}
}

func TestStoreHitInM(t *testing.T) {
	e := newEnv(t, topology.MustButterfly(4), nil)
	e.settle(100 * sim.Nanosecond)
	e.access(t, 0, coherence.Store, 3)
	res := e.access(t, 0, coherence.Store, 3)
	if !res.Hit {
		t.Fatal("store to M missed")
	}
	if res.Version != 2 {
		t.Fatalf("version = %d, want 2", res.Version)
	}
}

func TestStoreToSharedIsUpgradeMiss(t *testing.T) {
	e := newEnv(t, topology.MustButterfly(4), nil)
	e.settle(100 * sim.Nanosecond)
	e.access(t, 0, coherence.Load, 3) // S copy
	res := e.access(t, 0, coherence.Store, 3)
	if res.Hit {
		t.Fatal("store to S must miss (GETX)")
	}
	if e.p.CacheState(0, 3) != cache.Modified {
		t.Fatalf("state after upgrade = %v", e.p.CacheState(0, 3))
	}
}

func TestGetXInvalidatesSharers(t *testing.T) {
	e := newEnv(t, topology.MustButterfly(4), nil)
	e.settle(100 * sim.Nanosecond)
	e.access(t, 1, coherence.Load, 9)
	e.access(t, 2, coherence.Load, 9)
	e.access(t, 3, coherence.Store, 9)
	e.settle(300 * sim.Nanosecond)
	if s := e.p.CacheState(1, 9); s != cache.Invalid {
		t.Fatalf("node 1 state = %v, want I", s)
	}
	if s := e.p.CacheState(2, 9); s != cache.Invalid {
		t.Fatalf("node 2 state = %v, want I", s)
	}
	if s := e.p.CacheState(3, 9); s != cache.Modified {
		t.Fatalf("node 3 state = %v, want M", s)
	}
	if e.p.MemOwner(9) != 3 {
		t.Fatalf("memory owner = %d, want 3", e.p.MemOwner(9))
	}
}

func TestGetSDowngradesOwnerAndReturnsOwnershipToMemory(t *testing.T) {
	e := newEnv(t, topology.MustTorus(4, 4), nil)
	e.settle(100 * sim.Nanosecond)
	e.access(t, 4, coherence.Store, 11)
	e.settle(200 * sim.Nanosecond)
	res := e.access(t, 8, coherence.Load, 11)
	if res.Kind != stats.MissCacheToCache {
		t.Fatalf("kind = %v", res.Kind)
	}
	if res.Version != 1 {
		t.Fatalf("observed version = %d, want 1 (owner's write)", res.Version)
	}
	e.settle(300 * sim.Nanosecond)
	if s := e.p.CacheState(4, 11); s != cache.Shared {
		t.Fatalf("old owner state = %v, want S", s)
	}
	if e.p.MemOwner(11) != -1 {
		t.Fatalf("memory owner = %d, want -1 (memory)", e.p.MemOwner(11))
	}
	// A subsequent read must now be supplied by memory with the fresh data.
	res2 := e.access(t, 12, coherence.Load, 11)
	if res2.Kind != stats.MissFromMemory {
		t.Fatalf("third reader kind = %v, want memory", res2.Kind)
	}
	if res2.Version != 1 {
		t.Fatalf("memory version = %d, want 1", res2.Version)
	}
}

func TestWritebackOnEviction(t *testing.T) {
	e := newEnv(t, topology.MustButterfly(4), nil)
	e.settle(100 * sim.Nanosecond)
	// The test cache is 64KB/4-way/64B = 256 sets. Blocks b and b+256*k
	// map to the same set; writing 5 such blocks evicts the first.
	base := coherence.Block(16)
	for i := 0; i < 5; i++ {
		e.access(t, 0, coherence.Store, base+coherence.Block(i*256))
	}
	e.settle(500 * sim.Nanosecond)
	if s := e.p.CacheState(0, base); s != cache.Invalid {
		t.Fatalf("evicted block state = %v", s)
	}
	if e.p.MemOwner(base) != -1 {
		t.Fatalf("memory owner after writeback = %d, want memory", e.p.MemOwner(base))
	}
	// The written-back data must be readable from memory with version 1.
	res := e.access(t, 1, coherence.Load, base)
	if res.Kind != stats.MissFromMemory || res.Version != 1 {
		t.Fatalf("reload = %+v, want memory/version 1", res)
	}
}

func TestMigratorySharing(t *testing.T) {
	// Migratory pattern: each node in turn loads then stores the block.
	// Every handoff after the first is a cache-to-cache transfer and the
	// version must increase monotonically (the Oracle enforces per-cpu
	// monotonicity; here we check global progression too).
	e := newEnv(t, topology.MustTorus(4, 4), nil)
	e.settle(100 * sim.Nanosecond)
	var lastVersion uint64
	for round := 0; round < 3; round++ {
		for nd := 0; nd < 16; nd++ {
			e.access(t, nd, coherence.Load, 5)
			res := e.access(t, nd, coherence.Store, 5)
			if res.Version <= lastVersion {
				t.Fatalf("version did not advance: %d -> %d", lastVersion, res.Version)
			}
			lastVersion = res.Version
		}
	}
	if got := e.run.Misses(stats.MissCacheToCache); got == 0 {
		t.Fatal("migratory pattern produced no cache-to-cache misses")
	}
}

func TestConcurrentStoresSerialize(t *testing.T) {
	// All 16 nodes store to the same block concurrently; the protocol
	// must serialize them (16 distinct versions) without deadlock and
	// with the oracle observing monotonic versions everywhere.
	e := newEnv(t, topology.MustButterfly(4), nil)
	e.settle(100 * sim.Nanosecond)
	completed := 0
	for nd := 0; nd < 16; nd++ {
		e.p.Access(nd, coherence.Store, 3, func(r coherence.AccessResult) { completed++ })
	}
	simtest.RunWhile(t, e.k, 20*sim.Microsecond, "completed < 16", func() bool { return completed < 16 })
	// One node ends as owner with version 16.
	owners := 0
	for nd := 0; nd < 16; nd++ {
		if e.p.CacheState(nd, 3) == cache.Modified {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("owners = %d, want exactly 1", owners)
	}
}

func TestConcurrentLoadStoreMix(t *testing.T) {
	for _, topo := range []*topology.Topology{topology.MustButterfly(4), topology.MustTorus(4, 4)} {
		e := newEnv(t, topo, nil)
		e.settle(100 * sim.Nanosecond)
		rng := sim.NewRand(99)
		// Each node runs a random access script over a small hot set;
		// blocking per node, concurrent across nodes.
		remaining := make([]int, 16)
		for i := range remaining {
			remaining[i] = 120
		}
		totalLeft := 16 * 120
		var issue func(nd int)
		issue = func(nd int) {
			if remaining[nd] == 0 {
				return
			}
			remaining[nd]--
			b := coherence.Block(rng.Intn(8))
			op := coherence.Load
			if rng.Bool(0.4) {
				op = coherence.Store
			}
			e.p.Access(nd, op, b, func(r coherence.AccessResult) {
				totalLeft--
				issue(nd)
			})
		}
		for nd := 0; nd < 16; nd++ {
			issue(nd)
		}
		simtest.RunWhile(t, e.k, runLimit, "accesses left or pending", func() bool { return totalLeft > 0 || e.p.Pending() > 0 })
		if e.p.Pending() != 0 {
			t.Fatalf("%s: pending = %d after drain", topo.Name(), e.p.Pending())
		}
		// SWMR at quiescence: for each hot block at most one M copy, and
		// no M coexisting with S.
		for b := coherence.Block(0); b < 8; b++ {
			m, s := 0, 0
			for nd := 0; nd < 16; nd++ {
				switch e.p.CacheState(nd, b) {
				case cache.Modified:
					m++
				case cache.Shared:
					s++
				}
			}
			if m > 1 || (m == 1 && s > 0) {
				t.Fatalf("%s: block %d SWMR violated: %d M, %d S", topo.Name(), b, m, s)
			}
			if m == 1 {
				if own := e.p.MemOwner(b); own < 0 {
					t.Fatalf("%s: block %d cached M but memory thinks it owns", topo.Name(), b)
				}
			} else if own := e.p.MemOwner(b); own != -1 {
				t.Fatalf("%s: block %d memory owner %d but no M copy", topo.Name(), b, own)
			}
		}
		if e.p.Oracle().Observations() == 0 {
			t.Fatalf("%s: oracle observed nothing", topo.Name())
		}
	}
}

func TestEarlyProcessingEquivalence(t *testing.T) {
	// Optimization 2 on/off must produce identical final cache states and
	// versions for a deterministic script, and must consume at least some
	// transactions early.
	finalState := func(early bool) (map[[2]int]cache.State, int64) {
		e := newEnv(t, topology.MustTorus(4, 4), func(o *Options) { o.EarlyProcessing = early })
		e.settle(100 * sim.Nanosecond)
		rng := sim.NewRand(7)
		for i := 0; i < 400; i++ {
			nd := rng.Intn(16)
			b := coherence.Block(rng.Intn(6))
			op := coherence.Load
			if rng.Bool(0.3) {
				op = coherence.Store
			}
			e.access(t, nd, op, b)
		}
		e.settle(2 * sim.Microsecond)
		out := map[[2]int]cache.State{}
		for nd := 0; nd < 16; nd++ {
			for b := 0; b < 6; b++ {
				out[[2]int{nd, b}] = e.p.CacheState(nd, coherence.Block(b))
			}
		}
		return out, e.run.EarlyProcessed
	}
	off, earlyOff := finalState(false)
	on, earlyOn := finalState(true)
	if earlyOff != 0 {
		t.Fatalf("early consumption with optimization off: %d", earlyOff)
	}
	if earlyOn == 0 {
		t.Fatal("optimization 2 never consumed early")
	}
	for k, v := range off {
		if on[k] != v {
			t.Fatalf("state divergence at %v: %v vs %v", k, v, on[k])
		}
	}
}

func TestPrefetchAblationSlower(t *testing.T) {
	// Without prefetch (optimization 1), the cache/memory access
	// serializes after ordering: misses get strictly slower.
	lat := func(prefetch bool) sim.Time {
		e := newEnv(t, topology.MustButterfly(4), func(o *Options) { o.Prefetch = prefetch })
		e.settle(100 * sim.Nanosecond)
		res := e.access(t, 0, coherence.Load, 7)
		return res.Latency
	}
	with := lat(true)
	without := lat(false)
	if without <= with {
		t.Fatalf("no-prefetch latency %v not greater than prefetch %v", without, with)
	}
}

func TestTrafficClassesMatchFigure4Shape(t *testing.T) {
	// TS-Snoop generates only Request (broadcast) and Data traffic; no
	// nacks, no misc messages (Figure 4).
	e := newEnv(t, topology.MustButterfly(4), nil)
	e.settle(100 * sim.Nanosecond)
	for i := 0; i < 10; i++ {
		e.access(t, i%16, coherence.Store, coherence.Block(i))
		e.access(t, (i+3)%16, coherence.Load, coherence.Block(i))
	}
	e.settle(1 * sim.Microsecond)
	if e.run.Traffic.LinkBytes(stats.ClassNack) != 0 {
		t.Fatal("TS-Snoop produced nack traffic")
	}
	if e.run.Traffic.LinkBytes(stats.ClassMisc) != 0 {
		t.Fatal("TS-Snoop produced misc traffic")
	}
	if e.run.Traffic.LinkBytes(stats.ClassRequest) == 0 || e.run.Traffic.LinkBytes(stats.ClassData) == 0 {
		t.Fatal("missing expected traffic classes")
	}
}

func TestPerMissTrafficEnvelope(t *testing.T) {
	// Section 5 back-of-envelope: a timestamp snooping miss on the
	// 16-node butterfly costs 384 bytes: an address packet over 21 links
	// (21*8) and a data packet over 3 links (3*72).
	e := newEnv(t, topology.MustButterfly(4), nil)
	e.settle(100 * sim.Nanosecond)
	before := e.run.Traffic.TotalLinkBytes()
	e.access(t, 0, coherence.Load, 7)
	got := e.run.Traffic.TotalLinkBytes() - before
	want := int64(21*8 + 3*72)
	if got != want {
		t.Fatalf("per-miss traffic = %d bytes, want %d", got, want)
	}
}

func TestAccessWhileOutstandingPanics(t *testing.T) {
	e := newEnv(t, topology.MustButterfly(4), nil)
	e.settle(100 * sim.Nanosecond)
	e.p.Access(0, coherence.Load, 1, func(coherence.AccessResult) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second outstanding access did not panic")
		}
	}()
	e.p.Access(0, coherence.Load, 2, func(coherence.AccessResult) {})
}

func TestWritebackFromNonZeroNode(t *testing.T) {
	// Regression: PUTX transactions used to be injected with the
	// requester field unset, so node 0 claimed every other node's
	// writeback as its own (and panicked on its missing writeback
	// entry) while the real evictor never cleaned up. Evict from a
	// node other than 0 and check the full writeback round trip.
	e := newEnv(t, topology.MustButterfly(4), nil)
	e.settle(100 * sim.Nanosecond)
	base := coherence.Block(16)
	for i := 0; i < 5; i++ {
		e.access(t, 7, coherence.Store, base+coherence.Block(i*256))
	}
	e.settle(500 * sim.Nanosecond)
	if s := e.p.CacheState(7, base); s != cache.Invalid {
		t.Fatalf("evicted block state = %v", s)
	}
	if e.p.MemOwner(base) != -1 {
		t.Fatalf("memory owner after writeback = %d, want memory", e.p.MemOwner(base))
	}
	res := e.access(t, 2, coherence.Load, base)
	if res.Kind != stats.MissFromMemory || res.Version != 1 {
		t.Fatalf("reload = %+v, want memory/version 1", res)
	}
}

// addrTxn is copied by value into every hop of every transaction; the
// block's Index number rides in the bytes the 16-bit requester left.
func TestAddrTxnSize(t *testing.T) {
	if n := unsafe.Sizeof(addrTxn{}); n != 24 {
		t.Fatalf("addrTxn is %d bytes, want 24", n)
	}
}

// An ordered transaction rides a handoff item to a node's controllers;
// at most 64 bytes, Go copies it inline.
func TestHandoffSize(t *testing.T) {
	if n := unsafe.Sizeof(handoff{}); n > 64 {
		t.Fatalf("handoff is %d bytes, want at most 64", n)
	}
}

// The handoffs model the network-exit overhead Dovh as their own batch
// items, so a machine without it is refused.
func TestZeroDovhPanics(t *testing.T) {
	params := timing.Default()
	params.Dovh = 0
	defer func() {
		if recover() == nil {
			t.Error("zero Dovh did not panic")
		}
	}()
	New(sim.NewKernel(), topology.MustButterfly(4), params, cache.DefaultConfig(), &stats.Run{}, nil, DefaultOptions())
}

// A node's holder bit is set when it fills the block and stays set
// after an invalidation, until the node's next foreign snoop of the
// block finds neither a line nor a writeback entry and clears it.
func TestHolderMaskLazyClear(t *testing.T) {
	e := newEnv(t, topology.MustButterfly(4), nil)
	e.settle(200 * sim.Nanosecond)
	const b = 9
	holders := func() uint64 {
		i, ok := e.p.Index.Lookup(b)
		if !ok {
			t.Fatal("block not numbered")
		}
		return *e.p.holders.At(i)
	}
	e.access(t, 1, coherence.Load, b)
	if h := holders(); h != 1<<1 {
		t.Fatalf("after node 1's fill holders = %b, want node 1", h)
	}
	e.access(t, 2, coherence.Store, b) // invalidates node 1's copy
	if h := holders(); h != 1<<1|1<<2 {
		t.Fatalf("after node 2's GETX holders = %b, want nodes 1 and 2", h)
	}
	e.access(t, 3, coherence.Load, b) // node 1's snoop finds nothing
	e.settle(200 * sim.Nanosecond)
	if h := holders(); h != 1<<2|1<<3 {
		t.Fatalf("after node 3's GETS holders = %b, want nodes 2 and 3", h)
	}
}

// A machine above 64 nodes broadcasts to every endpoint, though a
// 64-bit reach mask cannot name each one, and its home audits only
// multicast masks: node 70's load finds node 80's Modified copy, and
// node 66's store invalidates both.
func TestBroadcastBeyond64Nodes(t *testing.T) {
	e := newEnv(t, topology.MustButterfly(9), nil)
	e.settle(200 * sim.Nanosecond)
	const b = 7
	for _, s := range []struct {
		node int
		op   coherence.Op
		want stats.MissKind
	}{
		{80, coherence.Store, stats.MissFromMemory},
		{70, coherence.Load, stats.MissCacheToCache},
		{66, coherence.Store, stats.MissFromMemory},
	} {
		var res *coherence.AccessResult
		e.p.Access(s.node, s.op, b, func(r coherence.AccessResult) { res = &r })
		simtest.RunWhile(t, e.k, 2*sim.Microsecond, "access incomplete", func() bool { return res == nil })
		if res.Hit || res.Kind != s.want {
			t.Fatalf("node %d %v: result %+v, want a %v miss", s.node, s.op, res, s.want)
		}
	}
	for node, want := range map[int]cache.State{80: cache.Invalid, 70: cache.Invalid, 66: cache.Modified} {
		if st := e.p.CacheState(node, b); st != want {
			t.Errorf("node %d holds %v, want %v", node, st, want)
		}
	}
}
