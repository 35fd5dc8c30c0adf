// Fixture for the allocfree analyzer: tsnoop/internal/protocol, the
// controller core, is a hot-path package itself, not only a prefix of
// the protocols below it, so map traffic reachable from event dispatch
// is a diagnostic here.
package protocol

import "tsnoop/internal/sim"

type core struct {
	k     *sim.Kernel
	ready map[int]bool
}

// deliverHit is scheduled through AfterCall below, so everything it
// statically calls is dispatch-reachable.
func deliverHit(a0, a1 any, i0 int64) {
	a0.(*core).drain()
}

func (c *core) drain() {
	for range c.ready { // want `map iteration in drain`
	}
}

func (c *core) begin() {
	c.k.AfterCall(1, deliverHit, c, nil, 0)
}
