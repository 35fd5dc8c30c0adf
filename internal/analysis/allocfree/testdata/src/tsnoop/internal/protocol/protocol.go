// Fixture for the allocfree analyzer: tsnoop/internal/protocol, the
// controller core, is a hot-path package itself, not only a prefix of
// the protocols below it, so map traffic reachable from event dispatch
// is a diagnostic here.
package protocol

import "tsnoop/internal/sim"

type core[P any] struct {
	k     *sim.Kernel
	ready map[int]bool
	hits  *sim.Batch[int]
	sends *sim.Batch[P]
}

// retryRequest runs every item of a batch built below, so everything
// it statically calls is dispatch-reachable.
func retryRequest(c *core[int]) {
	c.drain()
}

func (c *core[P]) drain() {
	for range c.ready { // want `map iteration in drain`
	}
}

// completeHit runs every item of a batch, inside a kernel dispatch.
func completeHit(*int) {
	_ = map[int]bool{} // want `map literal allocated in completeHit`
	clearPair[int, string]()
}

// clearPair is reached only through an explicit two-parameter
// instantiation.
func clearPair[K comparable, V any]() {
	_ = make(map[K]V) // want `map allocated in clearPair`
}

// runSend is a generic receiver's batch runner.
func (c *core[P]) runSend(*P) {
	c.ready = make(map[int]bool) // want `map allocated in runSend`
	flush[P](c)
}

// flush is reached only through an explicit instantiation.
func flush[P any](c *core[P]) {
	c.ready = map[int]bool{} // want `map literal allocated in flush`
}

// retryAs is a batch runner only as an explicit instantiation.
func retryAs[P any](c *core[P]) {
	for range c.ready { // want `map iteration in retryAs`
	}
}

// begin runs at build time: its own map is no diagnostic.
func (c *core[P]) begin() {
	c.ready = make(map[int]bool)
	c.hits = sim.NewBatch(c.k, completeHit)
	c.sends = sim.NewBatch[P](c.k, c.runSend)
	sim.NewBatch(c.k, retryRequest)
	sim.NewBatch(c.k, retryAs[P])
}
