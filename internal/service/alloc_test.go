package service

import (
	"context"
	"testing"
)

// raceEnabled is set by race_test.go: the race detector instruments
// allocations, so the alloc pins below skip under it.
var raceEnabled bool

// warmHitAllocs measures the allocations of one warm LRU hit through
// sv.Do. The spec is built outside the measured closure.
func warmHitAllocs(t *testing.T, sv *Service) float64 {
	t.Helper()
	s := testSpec(1)
	ctx := context.Background()
	if _, err := sv.Do(ctx, s); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(100, func() {
		res, err := sv.Do(ctx, s)
		if err != nil || !res.Cached {
			t.Fatalf("warm Do = %+v, %v; want a store hit", res, err)
		}
	})
}

// hitAllocs is the pinned allocation count of a warm LRU hit through
// Service.Do, on a single node and on a cluster key's owning member.
const hitAllocs = 4

// A warm hit validates, keys and probes the store once and decodes
// nothing: a second Canonical or a decoded run would show up here.
func TestServiceHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	single, err := New(Config{Sim: fastSim, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	nodes := startCluster(t, 2, fastSim, 0)
	owner := nodes[ownerIndex(t, nodes, testSpec(1).Canonical())]
	for _, tc := range []struct {
		name string
		sv   *Service
	}{{"single node", single}, {"cluster owner", owner.sv}} {
		if got := warmHitAllocs(t, tc.sv); got != hitAllocs {
			t.Errorf("%s: warm hit = %v allocs, want %d", tc.name, got, hitAllocs)
		}
	}
}
