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

func newMulticast(t *testing.T, mutate func(*Options)) *env {
	return newEnv(t, topology.MustButterfly(4), func(o *Options) {
		o.Multicast = true
		if mutate != nil {
			mutate(o)
		}
	})
}

func TestMulticastMemoryReadUsesFewerLinks(t *testing.T) {
	e := newMulticast(t, nil)
	e.settle(100 * sim.Nanosecond)
	before := e.run.Traffic.LinkBytes(stats.ClassRequest)
	res := e.access(t, 0, coherence.Load, 7) // cold: memory owns
	got := e.run.Traffic.LinkBytes(stats.ClassRequest) - before
	if res.Kind != stats.MissFromMemory {
		t.Fatalf("kind = %v", res.Kind)
	}
	// Mask {0, 7}: injection 1 + mid links + 2 ejections — far below the
	// broadcast's 21 links.
	if got >= 21*8 {
		t.Fatalf("multicast GETS used %d request bytes, want < %d", got, 21*8)
	}
	if got < 3*8 {
		t.Fatalf("multicast GETS used only %d request bytes (below a 3-link path)", got)
	}
	if e.run.Retries != 0 {
		t.Fatalf("memory-owned multicast retried %d times", e.run.Retries)
	}
}

func TestMulticastPredictedOwnerSupplies(t *testing.T) {
	e := newMulticast(t, nil)
	e.settle(100 * sim.Nanosecond)
	e.access(t, 5, coherence.Store, 7) // broadcast GETX: everyone learns owner=5
	e.settle(200 * sim.Nanosecond)
	res := e.access(t, 0, coherence.Load, 7)
	if res.Kind != stats.MissCacheToCache {
		t.Fatalf("kind = %v, want cache-to-cache via predicted owner", res.Kind)
	}
	if e.run.Retries != 0 {
		t.Fatalf("correct prediction retried %d times", e.run.Retries)
	}
	// Latency stays at the snooping cache-to-cache level (no 3-hop).
	if res.Latency > 145*sim.Nanosecond {
		t.Fatalf("multicast c2c latency = %v", res.Latency)
	}
}

func TestMulticastMispredictionRetriesViaHome(t *testing.T) {
	// With prediction disabled, a GETS to a cache-owned block misses the
	// owner; the home audits the mask, re-issues a full broadcast, and
	// the owner supplies on the retry.
	e := newMulticast(t, func(o *Options) { o.PredictorSize = -1 })
	e.settle(100 * sim.Nanosecond)
	e.access(t, 5, coherence.Store, 7)
	e.settle(200 * sim.Nanosecond)
	res := e.access(t, 0, coherence.Load, 7)
	if res.Kind != stats.MissCacheToCache {
		t.Fatalf("kind = %v, want cache-to-cache after retry", res.Kind)
	}
	if res.Version != 1 {
		t.Fatalf("version = %d", res.Version)
	}
	if e.run.Retries != 1 {
		t.Fatalf("retries = %d, want 1", e.run.Retries)
	}
	// The misprediction costs latency: audit at home + rebroadcast.
	if res.Latency <= 123*sim.Nanosecond {
		t.Fatalf("mispredicted c2c latency = %v, expected above the direct 123ns", res.Latency)
	}
	e.settle(sim.Microsecond)
	if s := e.p.CacheState(5, 7); s != cache.Shared {
		t.Fatalf("owner state after retried GETS = %v, want S", s)
	}
}

func TestMulticastBoundedPredictorEvicts(t *testing.T) {
	// A 2-entry predictor forgets old owners; reads of forgotten blocks
	// retry through the home but still complete correctly.
	e := newMulticast(t, func(o *Options) { o.PredictorSize = 2 })
	e.settle(100 * sim.Nanosecond)
	for b := coherence.Block(0); b < 6; b++ {
		e.access(t, int(b)%3+4, coherence.Store, b)
	}
	e.settle(500 * sim.Nanosecond)
	for b := coherence.Block(0); b < 6; b++ {
		res := e.access(t, 9, coherence.Load, b)
		if res.Kind != stats.MissCacheToCache || res.Version != 1 {
			t.Fatalf("block %d: %+v", b, res)
		}
	}
	if e.run.Retries == 0 {
		t.Fatal("bounded predictor never mispredicted")
	}
}

func TestMulticastStressCoherent(t *testing.T) {
	for _, topo := range []*topology.Topology{topology.MustButterfly(4), topology.MustTorus(4, 4)} {
		for _, predSize := range []int{0, 4, -1} {
			e := newEnv(t, topo, func(o *Options) {
				o.Multicast = true
				o.PredictorSize = predSize
			})
			e.settle(100 * sim.Nanosecond)
			rng := sim.NewRand(uint64(13 + predSize))
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
				b := coherence.Block(rng.Intn(10))
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
			simtest.RunWhile(t, e.k, runLimit, "accesses left", func() bool { return left > 0 })
			e.settle(2 * sim.Microsecond)
			if e.p.Pending() != 0 {
				t.Fatalf("%s/pred=%d: pending %d", topo.Name(), predSize, e.p.Pending())
			}
			for b := coherence.Block(0); b < 10; b++ {
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
					t.Fatalf("%s/pred=%d: block %d SWMR violated", topo.Name(), predSize, b)
				}
			}
		}
	}
}

func TestMulticastSameFinalVersionsAsBroadcast(t *testing.T) {
	final := func(multicast bool) map[coherence.Block]uint64 {
		e := newEnv(t, topology.MustButterfly(4), func(o *Options) {
			o.Multicast = multicast
			o.PredictorSize = 3 // force some retries along the way
		})
		e.settle(100 * sim.Nanosecond)
		rng := sim.NewRand(21)
		last := map[coherence.Block]uint64{}
		for i := 0; i < 500; i++ {
			nd := rng.Intn(16)
			b := coherence.Block(rng.Intn(8))
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
			t.Fatalf("block %d: broadcast version %d vs multicast %d", blk, v, b[blk])
		}
	}
}

func TestMulticastReducesRequestTraffic(t *testing.T) {
	traffic := func(multicast bool) (int64, int64) {
		e := newEnv(t, topology.MustButterfly(4), func(o *Options) { o.Multicast = multicast })
		e.settle(100 * sim.Nanosecond)
		rng := sim.NewRand(5)
		for i := 0; i < 600; i++ {
			nd := rng.Intn(16)
			b := coherence.Block(rng.Intn(8))
			op := coherence.Load
			if rng.Bool(0.25) {
				op = coherence.Store
			}
			e.access(t, nd, op, b)
		}
		return e.run.Traffic.LinkBytes(stats.ClassRequest), e.run.Retries
	}
	bcast, _ := traffic(false)
	mcast, retries := traffic(true)
	if mcast >= bcast {
		t.Fatalf("multicast request traffic %d not below broadcast %d", mcast, bcast)
	}
	if retries != 0 {
		t.Fatalf("unbounded predictor retried %d times", retries)
	}
	t.Logf("request traffic: broadcast %d bytes, multicast %d bytes (-%.0f%%)",
		bcast, mcast, 100*(1-float64(mcast)/float64(bcast)))
}

func TestMulticastWithMOSI(t *testing.T) {
	// MOSI keeps the owner alive across GETSes, so predictions stay
	// accurate and every reader is supplied cache-to-cache without
	// retries.
	e := newMulticast(t, func(o *Options) { o.UseOwnedState = true })
	e.settle(100 * sim.Nanosecond)
	e.access(t, 5, coherence.Store, 7)
	for _, reader := range []int{0, 1, 2, 3} {
		res := e.access(t, reader, coherence.Load, 7)
		if res.Kind != stats.MissCacheToCache {
			t.Fatalf("reader %d kind = %v", reader, res.Kind)
		}
	}
	if e.run.Retries != 0 {
		t.Fatalf("retries = %d", e.run.Retries)
	}
}
