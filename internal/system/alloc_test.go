package system_test

import (
	"testing"

	"tsnoop/internal/spec"
	"tsnoop/internal/system"
)

// raceEnabled is set by race_test.go: the race detector changes
// allocation counts and drops sync.Pool Puts at random, so the pins below
// skip under it.
var raceEnabled bool

// TestBuildAllocs pins Build + Release of spec.Default()'s 16-node
// butterfly under each protocol, once the L2 slab pool is warm: the
// topology and its broadcast trees, the protocol, its address network
// (TS-Snoop only) and data fabric, and the 16 processors. The TS-Snoop
// budget is the one BenchmarkSystemBuild reports.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, tc := range []struct {
		protocol string
		budget   float64
	}{
		{"TS-Snoop", 328},
		{"DirClassic", 289},
		{"DirOpt", 290},
	} {
		t.Run(tc.protocol, func(t *testing.T) {
			s := spec.Default()
			s.Protocol = tc.protocol
			cfg, gen, err := s.Config()
			if err != nil {
				t.Fatal(err)
			}
			build := func() {
				m, err := system.Build(cfg, gen)
				if err != nil {
					t.Fatal(err)
				}
				m.Release()
			}
			build() // warm the slab pool
			if a := testing.AllocsPerRun(20, build); a > tc.budget {
				t.Errorf("Build + Release allocates %v/op, budget %v", a, tc.budget)
			}
		})
	}
}
