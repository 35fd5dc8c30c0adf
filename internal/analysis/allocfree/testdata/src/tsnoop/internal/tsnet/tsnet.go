// Fixture for the allocfree analyzer: tsnoop/internal/tsnet is a
// hot-path package, so boxing into AtCall's any arguments and map
// traffic reachable from event dispatch are diagnostics here.
package tsnet

import "tsnoop/internal/sim"

type node struct {
	k *sim.Kernel
	m map[int]int
}

type payload struct{ a, b int }

// handler is scheduled through AtCall below, so it and everything it
// statically calls is dispatch-reachable.
func handler(a0, a1 any, i0 int64) {
	n := a0.(*node)
	n.m = make(map[int]int) // want `map allocated in handler`
	for range n.m {         // want `map iteration in handler`
	}
	helper(n)
}

func helper(n *node) {
	n.m = map[int]int{1: 2} // want `map literal allocated in helper`
}

func schedule(n *node, p *payload) {
	n.k.AtCall(0, handler, n, nil, 0)
	n.k.AfterCall(1, handler, *p, nil, 0) // want `AfterCall boxes a tsnoop/internal/tsnet.payload`
	n.k.AfterCall(1, handler, nil, 42, 0) // want `AfterCall boxes a int`
	n.k.AfterCall(1, handler, p, nil, int64(p.a+p.b))
}

// setup is not reachable from any scheduled event: construction-time
// map allocation and iteration are fine.
func setup(n *node) {
	n.m = make(map[int]int)
	for range n.m {
	}
}
