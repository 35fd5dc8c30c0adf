// Fixture for the allocfree analyzer: tsnoop/internal/obs is a hot-path
// package — probe methods run inside event dispatch, so the nil-guarded
// direct call is the only allowed shape. A probe call through a field
// chain or from a closure, and map traffic inside probe methods
// reachable from dispatch, are diagnostics.
package obs

import "tsnoop/internal/sim"

type Probe struct {
	counts []int64
	labels map[string]int64
}

// Event increments a dense-slice counter: the allowed probe shape.
func (p *Probe) Event(kind int) { p.counts[kind]++ }

// Span records a lifecycle span: like Event, integer arithmetic over
// pre-sized storage, legal on the dispatch path behind a nil guard.
func (p *Probe) Span(kind int, durPS int64) { p.counts[kind] += durPS }

// label is dispatch-reachable through handler below, so its map
// allocation is a diagnostic even though label itself runs no batch.
func (p *Probe) label() {
	p.labels = make(map[string]int64) // want `map allocated in label`
}

type component struct {
	k     *sim.Kernel
	probe *Probe
	dur   int64
}

// handler is the blessed pattern: a batch runner whose probe use is
// nil-guarded, costing one branch when telemetry is off. No
// diagnostics on the guard or the call.
func handler(c *component) {
	if p := c.probe; p != nil {
		p.Event(0)
		p.Span(0, c.dur)
		p.label()
	}
}

// unhoisted is dispatch-reachable; calling the probe through the field
// chain skips the hoisted nil guard the discipline requires. The
// guarded direct call below it is the blessed shape.
func unhoisted(c *component) {
	c.probe.Span(0, c.dur) // want `obs.Probe.Span called through a field chain`
	if p := c.probe; p != nil {
		p.Span(1, c.dur)
	}
}

func (c *component) schedule() {
	sim.NewBatch(c.k, handler)
	sim.NewBatch(c.k, unhoisted)
	sim.NewBatch(c.k, spanning)
}

// spanning shows the closure escape hatch is closed: even inside a
// batch runner, wrapping the span in a func literal re-introduces a
// per-event allocation.
func spanning(c *component) {
	defer func() { c.probe.Span(0, c.dur) }() // want `obs.Probe.Span called from a closure`
	if p := c.probe; p != nil {
		p.Span(0, c.dur)
	}
}

// size builds the probe's dense slices at construction time, off the
// dispatch path: map use here is fine.
func (p *Probe) size(n int) {
	p.counts = make([]int64, n)
	p.labels = make(map[string]int64)
}
