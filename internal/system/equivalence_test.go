package system

import (
	"testing"

	"tsnoop/internal/coherence"
	"tsnoop/internal/sim"
	"tsnoop/internal/sim/simtest"
	"tsnoop/internal/workload"
)

// Cross-protocol functional equivalence: a deterministic, globally
// sequential access script must produce identical version histories under
// every protocol and network — the protocols may only differ in timing and
// traffic, never in values. This is the strongest end-to-end check that
// all three coherence engines implement the same memory semantics.
func TestProtocolsFunctionallyEquivalent(t *testing.T) {
	type key struct {
		idx int
	}
	script := func(protocol, network string, mosi bool) []uint64 {
		cfg := DefaultConfig(protocol, network)
		cfg.TSSnoop.UseOwnedState = mosi
		s, err := Build(cfg, workload.Uniform(64, 0, 10, 16))
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRand(77)
		var versions []uint64
		for i := 0; i < 600; i++ {
			nd := rng.Intn(16)
			b := coherence.Block(rng.Intn(12))
			op := coherence.Load
			if rng.Bool(0.4) {
				op = coherence.Store
			}
			done := false
			var got uint64
			s.Proto.Access(nd, op, b, func(r coherence.AccessResult) { got = r.Version; done = true })
			simtest.RunWhile(t, s.K, 20*sim.Microsecond, "access incomplete", func() bool { return !done })
			versions = append(versions, got)
		}
		return versions
	}
	ref := script(ProtoTSSnoop, NetButterfly, false)
	variants := []struct {
		name     string
		protocol string
		network  string
		mosi     bool
		// exact protocols synchronize stores fully (TS-Snoop's total
		// order; DirClassic's invalidation acks), so a sequential script
		// serializes identically. DirOpt completes stores while
		// invalidations are still in flight (GS320-style, no acks): a
		// load racing an in-flight invalidation may legally return the
		// previous version, so only stores are compared exactly and loads
		// must never be NEWER than the synchronous reference.
		exact bool
	}{
		{"TS-Snoop/torus", ProtoTSSnoop, NetTorus, false, true},
		{"TS-Snoop/MOSI", ProtoTSSnoop, NetButterfly, true, true},
		{"DirClassic/butterfly", ProtoDirClassic, NetButterfly, false, true},
		{"DirOpt/butterfly", ProtoDirOpt, NetButterfly, false, false},
		{"DirOpt/torus", ProtoDirOpt, NetTorus, false, false},
	}
	for _, v := range variants {
		got := script(v.protocol, v.network, v.mosi)
		for i := range ref {
			if v.exact && got[i] != ref[i] {
				t.Fatalf("%s diverged from TS-Snoop/butterfly at access %d: version %d vs %d",
					v.name, i, got[i], ref[i])
			}
			if !v.exact && got[i] > ref[i] {
				t.Fatalf("%s returned version %d newer than the synchronous reference %d at access %d",
					v.name, got[i], ref[i], i)
			}
		}
	}
	_ = key{}
}
