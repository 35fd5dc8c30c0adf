package harness

// This file derives the specs an experiment executes. Every grid cell,
// sweep point, and table row is one self-contained spec.Spec, so the
// quota, seed, and knob resolution rules cannot drift between the grid,
// the sweeps, and the tables; the service runs each spec (internal/service)
// and the renderers here are pure views over the results.

import (
	"tsnoop/internal/sim"
	"tsnoop/internal/spec"
)

// seeds normalizes the Seeds knob: anything below 1 means a single
// unperturbed run, so a zero-valued Experiment still renders figures.
func (e Experiment) seeds() int {
	if e.Seeds < 1 {
		return 1
	}
	return e.Seeds
}

// cellSpec derives the single-seed, unperturbed spec a grid cell, sweep
// point, or table row starts from: the experiment's Base knobs with the
// cell coordinates and the experiment's machine-scale fields applied.
func (e Experiment) cellSpec(bench, proto, network string) spec.Spec {
	s := spec.Default()
	if e.Base != nil {
		s = *e.Base
	}
	s.Benchmark, s.Protocol, s.Network = bench, proto, network
	s.Nodes = e.Nodes
	s.QuotaScale, s.WarmupScale = e.QuotaScale, e.WarmupScale
	s.Seeds = 1
	s.PerturbNS = 0
	return s
}

// CellSpec derives the spec whose Run reproduces a cell's reported
// result: the per-cell base (cellSpec) with the experiment's seed
// fan-out and, for more than one seed, its perturbation. It is the
// identity the service content-addresses grid cells by.
func (e Experiment) CellSpec(c Cell) spec.Spec {
	s := e.cellSpec(c.Benchmark, c.Protocol, c.Network)
	s.Seeds = e.seeds()
	if e.Seeds > 1 {
		s.PerturbNS = int64(e.PerturbMax / sim.Nanosecond)
	}
	return s
}

// ValidateGrid checks the spec of every cell of network's grid, so a
// machine that one of the grid's protocols cannot build fails before
// any cell runs.
func (e Experiment) ValidateGrid(network string) error {
	for _, c := range e.Cells(network) {
		if err := e.CellSpec(c).Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Cells enumerates the benchmark x protocol cells of one network's grid
// in presentation order — the order grid streams yield results in.
func (e Experiment) Cells(network string) []Cell {
	var cells []Cell
	for _, b := range e.benchmarks() {
		for _, p := range e.protocols() {
			cells = append(cells, Cell{Benchmark: b, Protocol: p, Network: network})
		}
	}
	return cells
}
