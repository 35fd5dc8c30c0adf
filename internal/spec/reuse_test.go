package spec

import (
	"encoding/json"
	"runtime"
	"testing"

	"tsnoop/internal/cache"
)

// raceEnabled is set by race_test.go: under the race detector sync.Pool
// drops Puts at random, so pool reuse is not measurable there.
var raceEnabled bool

// render runs s and returns its stats JSON and its -metrics report.
func render(t *testing.T, s Spec) (string, string) {
	t.Helper()
	run, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), run.Metrics.Summary()
}

// Machines built on pooled caches answer byte for byte like fresh ones:
// spec A, then spec B on the other protocol family and network (same
// cache geometry, so B's seeds take A's slabs and dirty them), then A
// again on B's slabs. Four concurrent seeds share the pool. The 1 MiB
// geometry is this test's own, so A's first run builds fresh caches.
func TestRunOnReusedCachesIsByteIdentical(t *testing.T) {
	opts := []Option{WithNodes(4), WithWarmup(200), WithQuota(300), WithSeeds(4), WithWorkers(4),
		WithPerturbNS(3), WithCacheBytes(1 << 20), WithMetrics()}
	a := New("barnes", opts...)
	b := New("OLTP", append(opts, WithProtocol("DirOpt"), WithNetwork("torus"))...)
	stats1, metrics1 := render(t, a)
	render(t, b)
	stats2, metrics2 := render(t, a)
	if stats1 != stats2 {
		t.Errorf("stats JSON changed on reused caches:\nfresh  %s\nreused %s", stats1, stats2)
	}
	if metrics1 != metrics2 {
		t.Errorf("-metrics report changed on reused caches:\nfresh\n%s\nreused\n%s", metrics1, metrics2)
	}
}

// Once a run has warmed the pool, the next run of the same geometry
// allocates less than one node's cache arrays (lines x 32 B): all four
// nodes' slabs are reused. One P keeps every slab reachable: sync.Pool
// does not steal another P's private slot, so a goroutine that moved
// between the runs could miss one slab.
func TestRunReusesCacheSlabs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := New("barnes", WithNodes(4), WithWarmup(100), WithQuota(200))
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	geom := cache.DefaultConfig()
	slab := uint64(geom.SizeBytes / geom.BlockBytes * 32)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("warm run allocated %d B", got)
	if got >= slab {
		t.Fatalf("warm run allocated %d B, want < %d B (one node's slab)", got, slab)
	}
}
