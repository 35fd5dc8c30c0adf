package tssnoop

import (
	"testing"

	"tsnoop/internal/cache"
	"tsnoop/internal/coherence"
	"tsnoop/internal/sim"
	"tsnoop/internal/sim/simtest"
	"tsnoop/internal/stats"
	"tsnoop/internal/topology"
)

func newMOSI(t *testing.T) *env {
	return newEnv(t, topology.MustButterfly(4), func(o *Options) { o.UseOwnedState = true })
}

func TestMOSIOwnerRetainsOwnershipOnGetS(t *testing.T) {
	e := newMOSI(t)
	e.settle(100 * sim.Nanosecond)
	e.access(t, 5, coherence.Store, 7)
	e.settle(100 * sim.Nanosecond)

	before := e.run.Traffic.Messages(stats.ClassData)
	res := e.access(t, 0, coherence.Load, 7)
	e.settle(200 * sim.Nanosecond)
	dataMsgs := e.run.Traffic.Messages(stats.ClassData) - before

	if res.Kind != stats.MissCacheToCache {
		t.Fatalf("kind = %v", res.Kind)
	}
	// MOSI sends exactly one data message (owner -> requester); MSI sends
	// two (the owner also writes back to memory).
	if dataMsgs != 1 {
		t.Fatalf("data messages = %d, want 1", dataMsgs)
	}
	if s := e.p.CacheState(5, 7); s != cache.Owned {
		t.Fatalf("old owner state = %v, want O", s)
	}
	if e.p.MemOwner(7) != 5 {
		t.Fatalf("memory owner = %d, want 5 (retained)", e.p.MemOwner(7))
	}
}

func TestMOSIOwnedSuppliesEveryReader(t *testing.T) {
	e := newMOSI(t)
	e.settle(100 * sim.Nanosecond)
	e.access(t, 5, coherence.Store, 7)
	e.access(t, 0, coherence.Load, 7)
	// Under MSI the third reader would hit memory; under MOSI the Owned
	// copy keeps supplying cache-to-cache.
	res := e.access(t, 1, coherence.Load, 7)
	if res.Kind != stats.MissCacheToCache {
		t.Fatalf("third reader kind = %v, want cache-to-cache", res.Kind)
	}
	if res.Version != 1 {
		t.Fatalf("version = %d", res.Version)
	}
}

func TestMOSIUpgradeInPlace(t *testing.T) {
	e := newMOSI(t)
	e.settle(100 * sim.Nanosecond)
	e.access(t, 5, coherence.Store, 7) // M at 5
	e.access(t, 0, coherence.Load, 7)  // 5 -> O, 0 has S
	before := e.run.Traffic.Messages(stats.ClassData)
	res := e.access(t, 5, coherence.Store, 7) // O -> M upgrade
	if res.Hit {
		t.Fatal("store to Owned must be a coherence miss")
	}
	if res.Kind != stats.MissUpgrade {
		t.Fatalf("kind = %v, want upgrade", res.Kind)
	}
	if res.Version != 2 {
		t.Fatalf("version = %d, want 2", res.Version)
	}
	if got := e.run.Traffic.Messages(stats.ClassData) - before; got != 0 {
		t.Fatalf("upgrade moved %d data messages, want 0", got)
	}
	e.settle(300 * sim.Nanosecond)
	if s := e.p.CacheState(0, 7); s != cache.Invalid {
		t.Fatalf("sharer state = %v, want I", s)
	}
	if s := e.p.CacheState(5, 7); s != cache.Modified {
		t.Fatalf("upgrader state = %v, want M", s)
	}
	if e.p.MemOwner(7) != 5 {
		t.Fatalf("memory owner = %d, want 5", e.p.MemOwner(7))
	}
}

func TestMOSIUpgradeLosesRace(t *testing.T) {
	// Owner in O upgrades while another processor's GETX is in flight.
	// Whichever orders first, both stores must serialize and the system
	// must quiesce with a single M copy.
	e := newMOSI(t)
	e.settle(100 * sim.Nanosecond)
	e.access(t, 5, coherence.Store, 7)
	e.access(t, 0, coherence.Load, 7) // 5 -> O
	done := 0
	e.p.Access(5, coherence.Store, 7, func(coherence.AccessResult) { done++ })
	e.p.Access(3, coherence.Store, 7, func(coherence.AccessResult) { done++ })
	simtest.RunWhile(t, e.k, 20*sim.Microsecond, "done < 2", func() bool { return done < 2 })
	e.settle(sim.Microsecond)
	owners := 0
	for nd := 0; nd < 16; nd++ {
		if s := e.p.CacheState(nd, 7); s == cache.Modified {
			owners++
		} else if s == cache.Owned {
			t.Fatalf("node %d left in O after competing stores", nd)
		}
	}
	if owners != 1 {
		t.Fatalf("owners = %d", owners)
	}
}

func TestMOSIEvictionWritesBack(t *testing.T) {
	e := newMOSI(t)
	e.settle(100 * sim.Nanosecond)
	base := coherence.Block(16)
	e.access(t, 0, coherence.Store, base) // M
	e.access(t, 1, coherence.Load, base)  // 0 -> O
	// Evict the Owned line at node 0.
	for i := 1; i < 5; i++ {
		e.access(t, 0, coherence.Store, base+coherence.Block(i*256))
	}
	e.settle(2 * sim.Microsecond)
	if e.p.MemOwner(base) != -1 {
		t.Fatalf("memory owner = %d, want memory after O eviction", e.p.MemOwner(base))
	}
	res := e.access(t, 2, coherence.Load, base)
	if res.Kind != stats.MissFromMemory || res.Version != 1 {
		t.Fatalf("reload = %+v, want memory/version 1", res)
	}
}

func TestMOSIWritebackBufferKeepsServing(t *testing.T) {
	// A GETS ordered between an Owned eviction and its PUTX is served from
	// the writeback buffer without transferring ownership to memory early.
	e := newMOSI(t)
	e.settle(100 * sim.Nanosecond)
	base := coherence.Block(16)
	e.access(t, 0, coherence.Store, base)
	for i := 1; i < 5; i++ {
		e.access(t, 0, coherence.Store, base+coherence.Block(i*256))
	}
	// Immediately read from another node; may race the writeback.
	res := e.access(t, 3, coherence.Load, base)
	if res.Version != 1 {
		t.Fatalf("version = %d", res.Version)
	}
	e.settle(2 * sim.Microsecond)
	if e.p.Pending() != 0 {
		t.Fatal("system did not quiesce")
	}
	if e.p.MemOwner(base) != -1 {
		t.Fatalf("memory owner = %d after writeback", e.p.MemOwner(base))
	}
}

func TestMOSIStressInvariants(t *testing.T) {
	for _, topo := range []*topology.Topology{topology.MustButterfly(4), topology.MustTorus(4, 4)} {
		e := newEnv(t, topo, func(o *Options) { o.UseOwnedState = true })
		e.settle(100 * sim.Nanosecond)
		rng := sim.NewRand(31)
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
			b := coherence.Block(rng.Intn(8))
			op := coherence.Load
			if rng.Bool(0.45) {
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
		simtest.RunWhile(t, e.k, runLimit, "accesses left", func() bool { return left > 0 })
		e.settle(2 * sim.Microsecond)
		if e.p.Pending() != 0 {
			t.Fatalf("%s: pending = %d", topo.Name(), e.p.Pending())
		}
		// MOSI invariants at quiescence: at most one dirty copy (M or O);
		// M excludes all other copies; O may coexist with S; the memory
		// owner field names the dirty holder exactly when one exists.
		for b := coherence.Block(0); b < 8; b++ {
			m, o, s := 0, 0, 0
			dirtyAt := -1
			for nd := 0; nd < 16; nd++ {
				switch e.p.CacheState(nd, b) {
				case cache.Modified:
					m++
					dirtyAt = nd
				case cache.Owned:
					o++
					dirtyAt = nd
				case cache.Shared:
					s++
				}
			}
			if m+o > 1 {
				t.Fatalf("%s: block %d has %d dirty copies", topo.Name(), b, m+o)
			}
			if m == 1 && s+o > 0 {
				t.Fatalf("%s: block %d M coexists with %d S / %d O", topo.Name(), b, s, o)
			}
			owner := e.p.MemOwner(b)
			if m+o == 1 && owner != dirtyAt {
				t.Fatalf("%s: block %d dirty at %d but memory owner %d", topo.Name(), b, dirtyAt, owner)
			}
			if m+o == 0 && owner != -1 {
				t.Fatalf("%s: block %d clean but memory owner %d", topo.Name(), b, owner)
			}
		}
	}
}

func TestMOSIUsesLessTrafficThanMSI(t *testing.T) {
	script := func(mosi bool) int64 {
		e := newEnv(t, topology.MustButterfly(4), func(o *Options) { o.UseOwnedState = mosi })
		e.settle(100 * sim.Nanosecond)
		rng := sim.NewRand(8)
		for i := 0; i < 600; i++ {
			nd := rng.Intn(16)
			b := coherence.Block(rng.Intn(6))
			op := coherence.Load
			if rng.Bool(0.3) {
				op = coherence.Store
			}
			e.access(t, nd, op, b)
		}
		e.settle(2 * sim.Microsecond)
		return e.run.Traffic.TotalLinkBytes()
	}
	msi := script(false)
	mosi := script(true)
	if mosi >= msi {
		t.Fatalf("MOSI traffic %d not below MSI %d", mosi, msi)
	}
}

func TestMOSISameFinalVersionsAsMSI(t *testing.T) {
	// A deterministic sequential script must produce identical final
	// versions under MSI and MOSI: the Owned state changes who supplies
	// data, never the values.
	final := func(mosi bool) map[coherence.Block]uint64 {
		e := newEnv(t, topology.MustButterfly(4), func(o *Options) { o.UseOwnedState = mosi })
		e.settle(100 * sim.Nanosecond)
		rng := sim.NewRand(15)
		last := map[coherence.Block]uint64{}
		for i := 0; i < 500; i++ {
			nd := rng.Intn(16)
			b := coherence.Block(rng.Intn(5))
			op := coherence.Load
			if rng.Bool(0.4) {
				op = coherence.Store
			}
			res := e.access(t, nd, op, b)
			if op == coherence.Store {
				last[b] = res.Version
			}
		}
		return last
	}
	a, b := final(false), final(true)
	for blk, v := range a {
		if b[blk] != v {
			t.Fatalf("block %d final version %d (MSI) vs %d (MOSI)", blk, v, b[blk])
		}
	}
}
