package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"tsnoop/internal/harness"
	"tsnoop/internal/spec"
)

// sweepCmd runs the sensitivity sweeps and design ablations. The
// measured sweeps (nodes, blocksize, ablation) stream their points
// through the service — -progress and -json follow the grid
// subcommand's conventions — and the envelope sweep is the Section 5
// analytic bound (no simulation). Each point honors the spec's seed
// fan-out: -seeds N reports the minimum runtime over N perturbed
// copies (the default is one unperturbed run).
var sweepCmd = &command{
	name:      "sweep",
	summary:   "sensitivity sweeps and design ablations",
	simulates: true,
	setup: func(fs *flag.FlagSet) execFn {
		s := spec.Default()
		s.Benchmark = "barnes"
		s.QuotaScale = 0.5
		s.Bind(fs)
		kind := fs.String("sweep", "envelope", strings.Join(harness.SweepKinds(), ", ")+", or envelope")
		progress := fs.Bool("progress", false, "report per-point completion on stderr")
		jsonOut := fs.Bool("json", false, "stream sweep points as JSON lines instead of rendering")
		cacheDir := fs.String("cache", "", "serve and record points through this content-addressed store directory")
		cpuprof := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprof := fs.String("memprofile", "", "write a pprof heap profile to this file")
		return func(ctx context.Context, stdout, stderr io.Writer) error {
			if *kind == "envelope" {
				out, err := harness.RenderEnvelope()
				if err != nil {
					return err
				}
				_, err = io.WriteString(stdout, out)
				return err
			}
			if err := s.Validate(); err != nil {
				return err
			}
			if err := errTelemetry(s, "sweep"); err != nil {
				return err
			}
			stopProf, err := startProfiles(*cpuprof, *memprof)
			if err != nil {
				return err
			}
			defer stopProf()
			e := harness.FromSpec(s)
			sw, err := e.NewSweep(*kind, s.Benchmark, s.Network)
			if err != nil {
				return err
			}
			if err := sw.Validate(); err != nil {
				return err
			}
			sv, err := newService(ctx, *cacheDir, s.Workers)
			if err != nil {
				return err
			}
			pts := make([]harness.SweepPoint, 0, len(sw.Points))
			meter := newProgressMeter()
			for pt, err := range sv.StreamPoints(ctx, sw.Points) {
				if err != nil {
					return err
				}
				pts = append(pts, pt)
				if *progress {
					fmt.Fprintf(stderr, "sweep %s: %d/%d %s/%s done%s\n", *kind, len(pts), len(sw.Points), pt.Label, pt.Protocol, meter.note(len(pts), len(sw.Points)))
				}
				if *jsonOut {
					line, err := json.Marshal(pt)
					if err != nil {
						return err
					}
					fmt.Fprintf(stdout, "%s\n", line)
				}
			}
			if *jsonOut {
				return nil
			}
			out, err := sw.Render(pts)
			if err != nil {
				return err
			}
			_, err = io.WriteString(stdout, out)
			return err
		}
	},
}
