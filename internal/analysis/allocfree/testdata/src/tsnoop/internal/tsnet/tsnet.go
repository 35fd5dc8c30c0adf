// Fixture for the allocfree analyzer: tsnoop/internal/tsnet is a
// hot-path package, so every AtCall/AfterCall and map traffic reachable
// from event dispatch are diagnostics here.
package tsnet

import "tsnoop/internal/sim"

type node struct {
	k *sim.Kernel
	m map[int]int
}

type payload struct{ a, b int }

// handler runs every item of the batch built below, so it and
// everything it statically calls is dispatch-reachable.
func handler(n *node) {
	n.m = make(map[int]int) // want `map allocated in handler`
	for range n.m {         // want `map iteration in handler`
	}
	helper(n)
}

func helper(n *node) {
	n.m = map[int]int{1: 2} // want `map literal allocated in helper`
}

func tick(a0, a1 any, i0 int64) {}

// schedule builds handler's batch; the kernel's own events are banned
// here, boxing or not.
func schedule(n *node, p *payload) {
	sim.NewBatch(n.k, handler).Add(0, *n)
	n.k.AtCall(0, tick, n, nil, 0)                 // want `AtCall in a hot-path package`
	n.k.AfterCall(1, tick, *p, nil, 0)             // want `AfterCall in a hot-path package`
	n.k.AfterCall(1, tick, nil, 42, 0)             // want `AfterCall in a hot-path package`
	n.k.AfterCall(1, tick, p, nil, int64(p.a+p.b)) // want `AfterCall in a hot-path package`
}

// setup is not reachable from any batch: construction-time map
// allocation and iteration are fine.
func setup(n *node) {
	n.m = make(map[int]int)
	for range n.m {
	}
}
