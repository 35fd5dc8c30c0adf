package directory

import (
	"testing"

	"tsnoop/internal/coherence"
	"tsnoop/internal/topology"
)

// TestDirectoryMissAllocs pins the allocation-free steady state of a
// full directory miss. In the ping-pong cases two nodes alternate
// stores to one block, so every access is a three-hop GETX — request to
// the home, intervention to the owner, data to the requester and
// revision back to the home, with DirClassic's busy episode around it.
// In the NACK case two nodes load a block a third owns at once: the
// second request hits DirClassic's busy entry and is nacked and
// retried after its backoff. Messages travel by value, so once the
// block's directory entry is warm the whole path must not allocate.
func TestDirectoryMissAllocs(t *testing.T) {
	const block = coherence.Block(42)
	cases := []struct {
		name    string
		v       Variant
		misses  int64
		retries bool // whether the retry count must grow
	}{
		{name: "DirClassic ping-pong", v: Classic, misses: 209},
		{name: "DirOpt ping-pong", v: Opt, misses: 209},
		{name: "DirClassic nack", v: Classic, misses: 3 * 209, retries: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, topology.MustButterfly(4), tc.v, nil)
			done := 0
			doneFn := func(coherence.AccessResult) { done++ }
			node := 0
			op := func() {
				done = 0
				if !tc.retries {
					e.p.Access(node, coherence.Store, block, doneFn)
					node = 1 - node
					e.k.RunWhile(func() bool { return done < 1 })
					return
				}
				e.p.Access(5, coherence.Store, block, doneFn)
				e.k.RunWhile(func() bool { return done < 1 })
				e.p.Access(0, coherence.Load, block, doneFn)
				e.p.Access(1, coherence.Load, block, doneFn)
				e.k.RunWhile(func() bool { return done < 3 })
			}
			for range 8 {
				op()
			}
			retries := e.run.Retries
			if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
				t.Errorf("steady-state miss allocates %v/op, want 0", allocs)
			}
			if misses := e.run.TotalMisses(); misses != tc.misses {
				t.Errorf("%d misses, want %d", misses, tc.misses)
			}
			if tc.retries && e.run.Retries == retries {
				t.Error("no NACK retry while measuring")
			}
		})
	}
}
