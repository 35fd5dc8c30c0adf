package directory

import (
	"testing"

	"tsnoop/internal/coherence"
	"tsnoop/internal/topology"
)

// TestDirectoryMissAllocs pins the allocation-free steady state of a
// full directory miss in both variants: two nodes ping-pong stores to
// one block, so every access is a three-hop GETX — request to the home,
// intervention to the owner, data to the requester and revision back to
// the home, with DirClassic's busy episode around it. Messages travel by
// value, so once the block's directory entry is warm the whole path must
// not allocate.
func TestDirectoryMissAllocs(t *testing.T) {
	for _, v := range []Variant{Classic, Opt} {
		e := newEnv(t, topology.MustButterfly(4), v, nil)
		const block = coherence.Block(42)
		done := false
		doneFn := func(coherence.AccessResult) { done = true }
		node := 0
		miss := func() {
			done = false
			e.p.Access(node, coherence.Store, block, doneFn)
			node = 1 - node
			e.k.RunWhile(func() bool { return !done })
		}
		for range 8 {
			miss()
		}
		if allocs := testing.AllocsPerRun(200, miss); allocs != 0 {
			t.Errorf("steady-state %v miss allocates %v/op, want 0", v, allocs)
		}
		if misses := e.run.TotalMisses(); misses != 209 {
			t.Errorf("%v: %d misses, want 209", v, misses)
		}
	}
}
