// Spec API walkthrough: the experiment surface is one declarative
// value. This example builds a spec.Spec with functional options,
// shows the three lossless renderings (Go value, JSON, flag list),
// demonstrates one-line validation errors, runs the spec, and then
// streams a grid with live per-cell progress and early cancellation —
// the things the old positional-arguments-plus-mutation-hook API could
// not express.
package main

import (
	"context"
	"fmt"
	"log"

	"tsnoop/internal/harness"
	"tsnoop/internal/service"
	"tsnoop/internal/spec"
	"tsnoop/internal/system"
)

func main() {
	log.SetFlags(0)

	// 1. Declare an experiment. Unset knobs keep the paper's defaults
	// (16 nodes, slack 1, prefetch on, 4 MB caches ...).
	s := spec.New("DSS",
		spec.WithProtocol(system.ProtoTSSnoop),
		spec.WithNetwork(system.NetTorus),
		spec.WithSlack(4),
		spec.WithMOSI(),
		spec.WithQuota(1000),
		spec.WithWarmup(800),
		spec.WithSeeds(3),
		spec.WithPerturbNS(3),
	)

	// 2. The same spec as JSON and as a flag list — both round-trip to
	// the identical value, so files, scripts, and the tsnoop CLI all
	// name the same experiment.
	fmt.Printf("spec JSON:\n  %s\n", s.JSON())
	fmt.Printf("spec flags:\n  tsnoop run %v\n\n", s.Args())
	if back, err := spec.FromJSON(s.JSON()); err != nil || back != s {
		log.Fatalf("JSON round trip broke: %v", err)
	}
	if back, err := spec.FromArgs(s.Args()); err != nil || back != s {
		log.Fatalf("flag round trip broke: %v", err)
	}

	// 3. Validation happens in one place and reports one-line errors.
	if _, err := spec.New("tpc-w").Run(); err != nil {
		fmt.Printf("validation: %v\n", err)
	}
	if _, err := spec.New("OLTP", spec.WithNetwork("hypercube")).Run(); err != nil {
		fmt.Printf("validation: %v\n\n", err)
	}

	// 4. Run it: three perturbed copies fan out concurrently and the
	// minimum-runtime run is reported (the paper's rule).
	run, err := s.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== %s / %s / %s, best of %d seeds ==\n", s.Benchmark, s.Protocol, s.Network, s.Seeds)
	fmt.Print(run.Summary())

	// 5. Grids stream through a (here memory-only) service: each
	// benchmark x protocol cell arrives the moment its seeds finish, so
	// progress is live and a context cancels early. The spec's benchmark
	// restricts the grid to one workload.
	fmt.Println("\n== streaming a one-benchmark grid (butterfly) ==")
	e := harness.FromSpec(spec.New("barnes", spec.WithQuotaScale(0.2), spec.WithWarmupScale(0.2)))
	sv, err := service.New(service.Config{})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	grid := harness.NewGrid(system.NetButterfly, e.Benchmarks)
	for cell, err := range sv.StreamGrid(ctx, e, system.NetButterfly) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cell done: %-10s %-11s runtime %v\n", cell.Cell.Benchmark, cell.Cell.Protocol, cell.Best.Runtime)
		grid.Add(cell)
	}
	fmt.Println()
	fmt.Print(grid.Figure3())
}
