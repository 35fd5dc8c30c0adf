package protocol

import (
	"testing"

	"tsnoop/internal/cache"
	"tsnoop/internal/coherence"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/timing"
	"tsnoop/internal/topology"
)

func newCore(t *testing.T) *Core[struct{}] {
	t.Helper()
	c := &Core[struct{}]{}
	c.Init(sim.NewKernel(), topology.MustButterfly(2), timing.Default(),
		cache.Config{SizeBytes: 64 * 1024, Ways: 4, BlockBytes: 64}, &stats.Run{}, nil, nil)
	t.Cleanup(c.Release)
	return c
}

// An L2 hit is a load of any valid copy or a store to a Modified one,
// whichever protocol runs. A hit completes L2Hit later with the Oracle's
// version; a miss is counted outstanding and left to the protocol.
func TestBeginHitDecision(t *testing.T) {
	c := newCore(t)
	states := []cache.State{cache.Invalid, cache.Shared, cache.Owned, cache.Modified}
	for i, st := range states {
		b := coherence.Block(i)
		if st != cache.Invalid {
			c.Cache(1).Insert(b, st, 0)
		}
		for _, op := range []coherence.Op{coherence.Load, coherence.Store} {
			want := (op == coherence.Load && st != cache.Invalid) || st == cache.Modified
			var got *coherence.AccessResult
			pending := c.Pending()
			issued := c.K.Now()
			_, hit := c.Begin(1, op, b, func(r coherence.AccessResult) { got = &r })
			if hit != want {
				t.Fatalf("%v %v: Begin = %v, want %v", st, op, hit, want)
			}
			if !hit {
				if c.Pending() != pending+1 {
					t.Fatalf("%v %v: miss not counted outstanding", st, op)
				}
				c.Complete(1, b, stats.MissFromMemory, issued, 0, func(coherence.AccessResult) {}, nil)
				continue
			}
			c.K.RunUntil(c.K.Now() + c.Params.L2Hit)
			if got == nil || !got.Hit || got.Latency != c.Params.L2Hit {
				t.Fatalf("%v %v: hit completion = %+v", st, op, got)
			}
			if c.K.Now()-issued != c.Params.L2Hit {
				t.Fatalf("%v %v: hit completed after %v", st, op, c.K.Now()-issued)
			}
		}
	}
}

// Complete drops the outstanding count before done runs, because done
// may issue the node's next access at once; the miss reaches the
// statistics and the Oracle with the latency since issue.
func TestCompleteReportsMiss(t *testing.T) {
	c := newCore(t)
	if _, hit := c.Begin(2, coherence.Store, 9, nil); hit {
		t.Fatal("store to an empty cache hit")
	}
	c.K.RunUntil(150 * sim.Nanosecond)
	var res coherence.AccessResult
	c.Complete(2, 9, stats.MissCacheToCache, 40*sim.Nanosecond, 3, func(r coherence.AccessResult) {
		if c.Pending() != 0 {
			t.Errorf("Pending = %d inside done, want 0", c.Pending())
		}
		res = r
	}, nil)
	if res.Hit || res.Kind != stats.MissCacheToCache || res.Latency != 110*sim.Nanosecond || res.Version != 3 {
		t.Fatalf("completion = %+v", res)
	}
	if c.Run.TotalMisses() != 1 || c.Oracle().Observations() != 1 {
		t.Fatalf("misses %d, observations %d; want 1 and 1", c.Run.TotalMisses(), c.Oracle().Observations())
	}
}
