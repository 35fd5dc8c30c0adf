package system_test

import (
	"testing"

	"tsnoop/internal/spec"
	"tsnoop/internal/system"
)

// raceEnabled is set by race_test.go: the race detector changes
// allocation counts and drops sync.Pool Puts at random, so the pin below
// skips under it.
var raceEnabled bool

// buildAllocs is the allocation budget of one Build + Release of
// spec.Default()'s machine once the L2 slab pool is warm: the topology
// and its broadcast trees, the protocol, its address network and data
// fabric, and the 16 processors.
const buildAllocs = 375

// TestBuildAllocs pins Build + Release of spec.Default()'s 16-node
// TS-Snoop butterfly at buildAllocs allocations, the budget
// BenchmarkSystemBuild reports.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	cfg, gen, err := spec.Default().Config()
	if err != nil {
		t.Fatal(err)
	}
	build := func() {
		s, err := system.Build(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		s.Release()
	}
	build() // warm the slab pool
	if a := testing.AllocsPerRun(20, build); a > buildAllocs {
		t.Errorf("Build + Release allocates %v/op, budget %d", a, buildAllocs)
	}
}
