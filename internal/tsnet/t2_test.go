package tsnet

import (
	"fmt"
	"testing"

	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/topology"
)

func TestDebugTokens2(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TokensPerPort = 2
	cfg.Verify = false
	topo := topology.MustTorus(4, 4)
	k := sim.NewKernel()
	run := &stats.Run{}
	net := New(k, topo, cfg, &run.Traffic, run)
	dues := make(map[int]uint64)
	for ep := 0; ep < 16; ep++ {
		net.Register(ep, func(int, uint64, any, sim.Time) {}, nil)
	}
	// wrap arriveTxn via TestHook? can't. Instead inspect via recompute:
	net.Start()
	k.RunUntil(100 * sim.Nanosecond)
	for ep := 0; ep < 16; ep++ {
		fmt.Printf("ep%d gt=%d  ", ep, net.GT(ep))
	}
	fmt.Println()
	for sw := 0; sw < 16; sw++ {
		s := &net.switches[sw]
		fmt.Printf("sw%d tokens=", sw)
		for _, in := range s.in {
			fmt.Printf("%v:%d ", topo.Link(in).From, net.tokensAt(in))
		}
		fmt.Println()
	}
	_ = dues
}
