package directory

import (
	"testing"
	"unsafe"

	"tsnoop/internal/cache"
	"tsnoop/internal/coherence"
	"tsnoop/internal/sim"
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

func newEnv(t *testing.T, topo *topology.Topology, v Variant, mutate func(*Options)) *env {
	t.Helper()
	return newPerturbedEnv(t, topo, v, nil, mutate)
}

// newPerturbedEnv is newEnv with perturb sampling every message's extra
// delay.
func newPerturbedEnv(t *testing.T, topo *topology.Topology, v Variant, perturb func() sim.Duration, mutate func(*Options)) *env {
	t.Helper()
	k := sim.NewKernel()
	run := &stats.Run{}
	opts := Options{Variant: v, RetrySeed: 1}
	if mutate != nil {
		mutate(&opts)
	}
	cc := cache.Config{SizeBytes: 64 * 1024, Ways: 4, BlockBytes: 64}
	p := New(k, topo, timing.Default(), cc, run, perturb, opts)
	return &env{k: k, p: p, run: run, topo: topo}
}

func (e *env) access(t *testing.T, node int, op coherence.Op, b coherence.Block) coherence.AccessResult {
	t.Helper()
	var res coherence.AccessResult
	done := false
	e.p.Access(node, op, b, func(r coherence.AccessResult) { res = r; done = true })
	e.k.RunWhile(func() bool { return !done })
	if !done {
		t.Fatalf("access node %d %v %x never completed", node, op, b)
	}
	return res
}

func (e *env) settle(d sim.Duration) { e.k.RunUntil(e.k.Now() + d) }

func TestMemoryMissLatencyMatchesTable2(t *testing.T) {
	// Table 2: block from memory = Dnet + Dmem + Dnet = 178 ns on the
	// butterfly. Directory request/response paths are exact (no ordering
	// slack), so the latency must be exactly 178 ns for a remote home.
	for _, v := range []Variant{Classic, Opt} {
		e := newEnv(t, topology.MustButterfly(4), v, nil)
		res := e.access(t, 0, coherence.Load, 7)
		if res.Latency != 178*sim.Nanosecond {
			t.Errorf("%v memory miss latency = %v, want 178ns", v, res.Latency)
		}
		if res.Kind != stats.MissFromMemory {
			t.Errorf("%v kind = %v", v, res.Kind)
		}
	}
}

func TestThreeHopLatencyMatchesTable2(t *testing.T) {
	// Table 2: block from cache with directory "3 hops" = Dnet + Dmem +
	// Dnet + Dcache + Dnet = 252 ns on the butterfly — about double
	// timestamp snooping's 123 ns.
	for _, v := range []Variant{Classic, Opt} {
		e := newEnv(t, topology.MustButterfly(4), v, nil)
		e.access(t, 5, coherence.Store, 7)
		res := e.access(t, 0, coherence.Load, 7)
		if res.Latency != 252*sim.Nanosecond {
			t.Errorf("%v 3-hop latency = %v, want 252ns", v, res.Latency)
		}
		if res.Kind != stats.MissCacheToCache {
			t.Errorf("%v kind = %v", v, res.Kind)
		}
	}
}

func TestTorusLatencies(t *testing.T) {
	// Torus means: memory 148 ns, 3-hop 207 ns (Table 2). Specific pairs
	// vary with distance; verify one exact configuration.
	e := newEnv(t, topology.MustTorus(4, 4), Opt, nil)
	// Node 0 -> home 2 (distance 2): Dnet = 4+30 = 34 both ways: 148 ns.
	res := e.access(t, 0, coherence.Load, 2)
	if res.Latency != 148*sim.Nanosecond {
		t.Errorf("torus memory latency = %v, want 148ns", res.Latency)
	}
}

func TestGetSAfterOwnerSharesDirectory(t *testing.T) {
	for _, v := range []Variant{Classic, Opt} {
		e := newEnv(t, topology.MustButterfly(4), v, nil)
		e.access(t, 5, coherence.Store, 7)
		e.access(t, 0, coherence.Load, 7)
		e.settle(sim.Microsecond)
		st, _, sharers := e.p.DirectoryState(7)
		if st != "S" || sharers != 2 {
			t.Errorf("%v directory = %s/%d sharers, want S/2", v, st, sharers)
		}
		if s := e.p.CacheState(5, 7); s != cache.Shared {
			t.Errorf("%v old owner state = %v, want S", v, s)
		}
	}
}

func TestGetXInvalidatesSharersAndCollectsAcks(t *testing.T) {
	e := newEnv(t, topology.MustButterfly(4), Classic, nil)
	e.access(t, 1, coherence.Load, 9)
	e.access(t, 2, coherence.Load, 9)
	e.access(t, 3, coherence.Load, 9)
	res := e.access(t, 4, coherence.Store, 9)
	if res.Version != 1 {
		t.Fatalf("version = %d", res.Version)
	}
	e.settle(sim.Microsecond)
	for _, nd := range []int{1, 2, 3} {
		if s := e.p.CacheState(nd, 9); s != cache.Invalid {
			t.Errorf("sharer %d state = %v, want I", nd, s)
		}
	}
	st, owner, _ := e.p.DirectoryState(9)
	if st != "E" || owner != 4 {
		t.Errorf("directory = %s owner %d, want E owner 4", st, owner)
	}
	// Misc traffic must include invalidations and acks.
	if e.run.Traffic.LinkBytes(stats.ClassMisc) == 0 {
		t.Error("no misc traffic despite invalidations")
	}
}

func TestDirOptInvalidationsWithoutAcks(t *testing.T) {
	// The GETX latency with sharers must not depend on collecting acks:
	// it equals the plain two-hop latency.
	e := newEnv(t, topology.MustButterfly(4), Opt, nil)
	e.access(t, 1, coherence.Load, 9)
	e.access(t, 2, coherence.Load, 9)
	res := e.access(t, 4, coherence.Store, 9)
	if res.Latency != 178*sim.Nanosecond {
		t.Fatalf("DirOpt GETX latency = %v, want 178ns (no ack wait)", res.Latency)
	}
	e.settle(sim.Microsecond)
	if s := e.p.CacheState(1, 9); s != cache.Invalid {
		t.Error("sharer not invalidated")
	}
}

func TestWritebackToDirectory(t *testing.T) {
	for _, v := range []Variant{Classic, Opt} {
		e := newEnv(t, topology.MustButterfly(4), v, nil)
		base := coherence.Block(16)
		for i := 0; i < 5; i++ { // force eviction of base (4-way, same set)
			e.access(t, 0, coherence.Store, base+coherence.Block(i*256))
		}
		e.settle(2 * sim.Microsecond)
		st, _, _ := e.p.DirectoryState(base)
		if st != "U" {
			t.Errorf("%v directory after writeback = %s, want U", v, st)
		}
		res := e.access(t, 1, coherence.Load, base)
		if res.Kind != stats.MissFromMemory || res.Version != 1 {
			t.Errorf("%v reload = %+v, want memory/version 1", v, res)
		}
	}
}

func TestClassicNacksUnderContention(t *testing.T) {
	// Two nodes fight over a block owned by a third: the second request
	// hits the busy directory entry and is nacked.
	e := newEnv(t, topology.MustButterfly(4), Classic, nil)
	e.access(t, 5, coherence.Store, 7)
	done := 0
	e.p.Access(0, coherence.Load, 7, func(coherence.AccessResult) { done++ })
	e.p.Access(1, coherence.Load, 7, func(coherence.AccessResult) { done++ })
	e.k.RunWhile(func() bool { return done < 2 })
	if e.run.Retries == 0 {
		t.Fatal("no nack retries under contention")
	}
	if e.run.Traffic.LinkBytes(stats.ClassNack) == 0 {
		t.Fatal("no nack traffic recorded")
	}
}

func TestOptQueuesInsteadOfNacking(t *testing.T) {
	e := newEnv(t, topology.MustButterfly(4), Opt, nil)
	e.access(t, 5, coherence.Store, 7)
	done := 0
	e.p.Access(0, coherence.Load, 7, func(coherence.AccessResult) { done++ })
	e.p.Access(1, coherence.Load, 7, func(coherence.AccessResult) { done++ })
	e.k.RunWhile(func() bool { return done < 2 })
	if e.run.Retries != 0 {
		t.Fatalf("DirOpt retried %d times", e.run.Retries)
	}
	if e.run.Traffic.LinkBytes(stats.ClassNack) != 0 {
		t.Fatal("DirOpt produced nack traffic")
	}
}

func TestMigratorySharing(t *testing.T) {
	for _, v := range []Variant{Classic, Opt} {
		e := newEnv(t, topology.MustTorus(4, 4), v, nil)
		var last uint64
		for round := 0; round < 2; round++ {
			for nd := 0; nd < 16; nd++ {
				e.access(t, nd, coherence.Load, 5)
				res := e.access(t, nd, coherence.Store, 5)
				if res.Version <= last {
					t.Fatalf("%v: version regressed %d -> %d", v, last, res.Version)
				}
				last = res.Version
			}
		}
		if e.run.Misses(stats.MissCacheToCache) == 0 {
			t.Fatalf("%v: no cache-to-cache transfers", v)
		}
	}
}

func TestConcurrentStoresSerialize(t *testing.T) {
	for _, v := range []Variant{Classic, Opt} {
		e := newEnv(t, topology.MustButterfly(4), v, nil)
		completed := 0
		for nd := 0; nd < 16; nd++ {
			e.p.Access(nd, coherence.Store, 3, func(coherence.AccessResult) { completed++ })
		}
		e.k.RunWhile(func() bool { return completed < 16 })
		owners := 0
		for nd := 0; nd < 16; nd++ {
			if e.p.CacheState(nd, 3) == cache.Modified {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("%v: owners = %d", v, owners)
		}
	}
}

func TestConcurrentMixStress(t *testing.T) {
	for _, v := range []Variant{Classic, Opt} {
		for _, topo := range []*topology.Topology{topology.MustButterfly(4), topology.MustTorus(4, 4)} {
			e := newEnv(t, topo, v, nil)
			rng := sim.NewRand(1234)
			remaining := make([]int, 16)
			for i := range remaining {
				remaining[i] = 120
			}
			left := 16 * 120
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
				e.p.Access(nd, op, b, func(coherence.AccessResult) {
					left--
					issue(nd)
				})
			}
			for nd := 0; nd < 16; nd++ {
				issue(nd)
			}
			e.k.RunWhile(func() bool { return left > 0 })
			e.settle(2 * sim.Microsecond)
			if e.p.Pending() != 0 {
				t.Fatalf("%v/%s: pending = %d", v, topo.Name(), e.p.Pending())
			}
			// SWMR and directory-cache agreement at quiescence.
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
					t.Fatalf("%v/%s: block %d SWMR violated (%d M, %d S)", v, topo.Name(), b, m, s)
				}
				st, owner, _ := e.p.DirectoryState(b)
				if m == 1 && st != "E" {
					t.Fatalf("%v/%s: block %d cached M but dir %s", v, topo.Name(), b, st)
				}
				if st == "E" {
					if e.p.CacheState(owner, b) != cache.Modified {
						t.Fatalf("%v/%s: dir E owner %d lacks M copy", v, topo.Name(), owner)
					}
				}
			}
		}
	}
}

func TestConcurrentMixWithPerturbation(t *testing.T) {
	// Random response delays exercise the races: held writebacks,
	// deferred interventions, stale invals.
	for _, v := range []Variant{Classic, Opt} {
		prng := sim.NewRand(5)
		e := newPerturbedEnv(t, topology.MustTorus(4, 4), v, func() sim.Duration { return prng.Duration(3 * sim.Nanosecond) }, nil)
		rng := sim.NewRand(77)
		remaining := make([]int, 16)
		for i := range remaining {
			remaining[i] = 150
		}
		left := 16 * 150
		var issue func(nd int)
		issue = func(nd int) {
			if remaining[nd] == 0 {
				return
			}
			remaining[nd]--
			b := coherence.Block(rng.Intn(6))
			op := coherence.Load
			if rng.Bool(0.5) {
				op = coherence.Store
			}
			e.p.Access(nd, op, b, func(coherence.AccessResult) {
				left--
				issue(nd)
			})
		}
		for nd := 0; nd < 16; nd++ {
			issue(nd)
		}
		e.k.RunWhile(func() bool { return left > 0 })
		if e.p.Pending() != 0 {
			t.Fatalf("%v: pending = %d", v, e.p.Pending())
		}
	}
}

func TestTrafficPerMissEnvelope(t *testing.T) {
	// Section 5: a directory miss satisfied by memory costs, at minimum,
	// an address packet over 3 links and a data packet over 3 links =
	// 240 bytes on the 16-node butterfly.
	e := newEnv(t, topology.MustButterfly(4), Opt, nil)
	before := e.run.Traffic.TotalLinkBytes()
	e.access(t, 0, coherence.Load, 7)
	got := e.run.Traffic.TotalLinkBytes() - before
	want := int64(3*8 + 3*72)
	if got != want {
		t.Fatalf("per-miss traffic = %d, want %d", got, want)
	}
}

func TestSelfInterventionViaWritebackBuffer(t *testing.T) {
	// A node writes a block, evicts it, and immediately re-reads it. If
	// the GETS reaches the home before the writeback, the home forwards
	// the intervention back to the requester, which serves it from its
	// own writeback buffer.
	for _, v := range []Variant{Classic, Opt} {
		e := newEnv(t, topology.MustButterfly(4), v, nil)
		base := coherence.Block(16)
		e.access(t, 0, coherence.Store, base)
		for i := 1; i < 5; i++ {
			e.access(t, 0, coherence.Store, base+coherence.Block(i*256))
		}
		// Immediately re-read the evicted block (writeback may race).
		res := e.access(t, 0, coherence.Load, base)
		if res.Version != 1 {
			t.Fatalf("%v: reread version = %d, want 1", v, res.Version)
		}
		e.settle(2 * sim.Microsecond)
		if e.p.Pending() != 0 {
			t.Fatalf("%v: pending after self-intervention", v)
		}
	}
}

// An intervention that reaches an owner after it evicted the block is
// served from its writeback buffer, and the revision it sends the home
// names the block's entry. Node 5 owns block 16 and evicts it; the
// home, node 0, reads the block at the same instant, so its local
// request finds the entry still exclusive at node 5 and forwards the
// intervention while node 5's writeback is in flight.
func TestInterventionServedFromWritebackBuffer(t *testing.T) {
	for _, v := range []Variant{Classic, Opt} {
		e := newEnv(t, topology.MustButterfly(4), v, nil)
		const b = coherence.Block(16)      // home node 0; set 16 of 256
		e.access(t, 5, coherence.Load, 17) // b is not the first block numbered
		for i := range 4 {
			e.access(t, 5, coherence.Store, b+coherence.Block(i*256))
		}
		var res coherence.AccessResult
		done := false
		e.p.Access(5, coherence.Store, b+4*256, func(coherence.AccessResult) {
			// The fill has just evicted b into node 5's writeback buffer.
			e.p.Access(0, coherence.Load, b, func(r coherence.AccessResult) { res, done = r, true })
		})
		e.k.RunWhile(func() bool { return !done })
		e.settle(2 * sim.Microsecond)
		if !done || res.Kind != stats.MissCacheToCache || res.Version != 1 {
			t.Fatalf("%v: read done %v, %+v; want version 1 from node 5's writeback buffer", v, done, res)
		}
		if st, _, sharers := e.p.DirectoryState(b); st != "S" || sharers != 1 {
			t.Fatalf("%v: directory %s with %d sharers, want S with the reader alone", v, st, sharers)
		}
		if e.p.Pending() != 0 || len(e.p.nodes[5].wb) != 0 {
			t.Fatalf("%v: %d pending, %d writebacks unacknowledged", v, e.p.Pending(), len(e.p.nodes[5].wb))
		}
	}
}

func TestAccessWhileOutstandingPanics(t *testing.T) {
	e := newEnv(t, topology.MustButterfly(4), Classic, nil)
	e.p.Access(0, coherence.Load, 1, func(coherence.AccessResult) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second outstanding access did not panic")
		}
	}()
	e.p.Access(0, coherence.Load, 2, func(coherence.AccessResult) {})
}

func TestVariantNames(t *testing.T) {
	if Classic.String() != "DirClassic" || Opt.String() != "DirOpt" {
		t.Fatal("variant names")
	}
}

// msg is copied by value into every message in flight, and dirEntry is
// one block's slot of a home's Table page: with node numbers in int16
// and idx in the bytes after the byte-sized fields, a message is 32
// bytes and an entry 72.
func TestMsgAndEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(msg{}); n > 40 {
		t.Errorf("msg is %d bytes, want at most 40", n)
	}
	if n := unsafe.Sizeof(dirEntry{}); n != 72 {
		t.Errorf("dirEntry is %d bytes, want 72", n)
	}
}
