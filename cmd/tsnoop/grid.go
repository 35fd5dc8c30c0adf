package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"iter"

	"tsnoop/internal/harness"
	"tsnoop/internal/spec"
	"tsnoop/internal/system"
)

// gridCmd regenerates the paper's figures: every benchmark x protocol
// cell for one or both networks, streamed through the service.
// -figure selects the rendering (3 = normalized runtime, 4 = normalized
// link traffic); -benchmark restricts the grid to one workload (any
// Spec workload name, including trace:<path>); -progress reports cells
// on stderr as they complete; -json streams each cell as one JSON line
// instead of rendering.
var gridCmd = &command{
	name:      "grid",
	aliases:   []string{"figures"},
	summary:   "regenerate the Figure 3/4 grids (streaming)",
	simulates: true,
	setup: func(fs *flag.FlagSet) execFn {
		s := spec.Default()
		s.Benchmark = "" // all benchmarks
		s.Network = "both"
		s.Seeds = 3
		s.PerturbNS = 3
		s.Bind(fs)
		figure := fs.Int("figure", 3, "figure number (3 = runtime, 4 = traffic)")
		progress := fs.Bool("progress", false, "report per-cell completion on stderr")
		jsonOut := fs.Bool("json", false, "stream cell results as JSON lines instead of rendering")
		cacheDir := fs.String("cache", "", "serve and record cells through this content-addressed store directory")
		return func(ctx context.Context, stdout, stderr io.Writer) error {
			if *figure != 3 && *figure != 4 {
				return fmt.Errorf("unknown figure %d (have 3 and 4)", *figure)
			}
			if err := errTelemetry(s, "grid"); err != nil {
				return err
			}
			nets, err := expandNetworks(s.Network)
			if err != nil {
				return err
			}
			e := harness.FromSpec(s)
			// -protocol, when given explicitly, restricts the grid — but the
			// figure renderings normalize against TS-Snoop and need every
			// column, so a restricted grid is JSON-only.
			fs.Visit(func(f *flag.Flag) {
				if f.Name == "protocol" {
					e.Protocols = []string{s.Protocol}
				}
			})
			if len(e.Protocols) > 0 && !*jsonOut {
				return fmt.Errorf("grid -protocol requires -json (the figures need all three protocols)")
			}
			for _, net := range nets {
				if err := e.ValidateGrid(net); err != nil {
					return err
				}
			}
			// Each cell goes through the service: with -cache, cells
			// computed on any earlier run (or by a server sharing the
			// directory) render without simulation.
			sv, err := newService(ctx, *cacheDir, s.Workers)
			if err != nil {
				return err
			}
			for _, net := range nets {
				g, err := streamGrid(sv.StreamGrid(ctx, e, net), e, net, *progress, *jsonOut, stdout, stderr)
				if err != nil {
					return err
				}
				if *jsonOut {
					continue
				}
				switch *figure {
				case 3:
					fmt.Fprintln(stdout, g.Figure3())
					lo, hi := g.SpeedupRange(system.ProtoDirClassic)
					lo2, hi2 := g.SpeedupRange(system.ProtoDirOpt)
					fmt.Fprintf(stdout, "TS-Snoop runs %.0f-%.0f%% faster than DirClassic and %.0f-%.0f%% faster than DirOpt.\n\n",
						lo*100, hi*100, lo2*100, hi2*100)
				case 4:
					fmt.Fprintln(stdout, g.Figure4())
					lo, hi := g.ExtraTrafficRange(system.ProtoDirClassic)
					lo2, hi2 := g.ExtraTrafficRange(system.ProtoDirOpt)
					fmt.Fprintf(stdout, "TS-Snoop uses %.0f-%.0f%% more link bandwidth than DirClassic and %.0f-%.0f%% more than DirOpt.\n\n",
						lo*100, hi*100, lo2*100, hi2*100)
				}
			}
			return nil
		}
	},
}

// streamGrid drives one network's grid stream, reporting progress and
// JSON lines as requested, and returns the assembled grid.
func streamGrid(stream iter.Seq2[harness.CellResult, error], e harness.Experiment, network string, progress, jsonOut bool, stdout, stderr io.Writer) (*harness.Grid, error) {
	benchmarks := e.BenchmarkNames()
	total := len(benchmarks) * len(e.ProtocolNames())
	g := harness.NewGrid(network, benchmarks)
	done := 0
	meter := newProgressMeter()
	for cr, err := range stream {
		if err != nil {
			return nil, err
		}
		done++
		if progress {
			fmt.Fprintf(stderr, "grid %s: %d/%d %s/%s done%s\n", network, done, total, cr.Cell.Benchmark, cr.Cell.Protocol, meter.note(done, total))
		}
		if jsonOut {
			line, err := json.Marshal(cr)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(stdout, "%s\n", line)
		}
		g.Add(cr)
	}
	return g, nil
}
