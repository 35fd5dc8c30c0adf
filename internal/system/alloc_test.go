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
		{"TS-Snoop", 174},
		{"DirClassic", 135},
		{"DirOpt", 136},
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

// TestRunAllocs pins Execute of a freshly built spec.Default() machine
// under each protocol, at 2% of its warm-up and measured quotas, so
// per-block allocations cannot creep back into the run: every home's
// per-block state lives in a coherence.Table that grows by pages of the
// run's block Index, and DirOpt's ordered streams in one slice made at
// Build. What remains is mostly the Oracle's per-CPU maps, the Index's
// own map, the writeback buffers' maps and the first growth of the
// kernel's batches and queues.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, tc := range []struct {
		protocol string
		budget   float64
	}{
		{"TS-Snoop", 570},
		{"DirClassic", 373},
		{"DirOpt", 372},
	} {
		t.Run(tc.protocol, func(t *testing.T) {
			s := spec.Default()
			s.Protocol = tc.protocol
			s.QuotaScale, s.WarmupScale = 0.02, 0.02
			cfg, gen, err := s.Config()
			if err != nil {
				t.Fatal(err)
			}
			// AllocsPerRun calls f once to warm up and once to measure;
			// each call runs a machine built beforehand.
			var machines [2]*system.System
			for i := range machines {
				if machines[i], err = system.Build(cfg, gen); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(machines[i].Release)
			}
			next := 0
			a := testing.AllocsPerRun(1, func() {
				if _, err := machines[next].Execute(); err != nil {
					t.Fatal(err)
				}
				next++
			})
			if a > tc.budget {
				t.Errorf("Execute allocates %v/op, budget %v", a, tc.budget)
			}
		})
	}
}
