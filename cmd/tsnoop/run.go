package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"tsnoop/internal/harness"
	"tsnoop/internal/obs"
	"tsnoop/internal/service"
	"tsnoop/internal/spec"
	"tsnoop/internal/stats"
)

// runCmd executes a single benchmark x protocol x network simulation
// through the service and prints its statistics. With -seeds N it runs
// N perturbed copies concurrently (bounded by -workers) and reports the
// minimum-runtime run, the paper's reporting rule. -json emits the
// result as a cell object with stable field names. Instrumented runs
// (-metrics, -spans, -trace-out) execute directly: telemetry is not the
// canonical payload the service answers with.
var runCmd = &command{
	name:      "run",
	summary:   "execute one benchmark x protocol x network simulation",
	simulates: true,
	setup: func(fs *flag.FlagSet) execFn {
		s := spec.Default()
		s.Bind(fs)
		jsonOut := fs.Bool("json", false, "emit the best run as a JSON cell result")
		cacheDir := fs.String("cache", "", "serve and record results through this content-addressed store directory")
		cpuprof := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprof := fs.String("memprofile", "", "write a pprof heap profile to this file")
		traceOut := fs.String("trace-out", "", "write transaction-lifecycle spans as Chrome trace-event JSON to this file (implies -spans, single seed)")
		return func(ctx context.Context, stdout, stderr io.Writer) error {
			stopProf, err := startProfiles(*cpuprof, *memprof)
			if err != nil {
				return err
			}
			var run *stats.Run
			var runErr error
			switch {
			case *traceOut != "":
				run, runErr = runTraced(s, *traceOut, *cacheDir, stderr)
			case s.Metrics || s.Spans:
				// The store's contract is byte-identical payloads per
				// canonical key, and Normalize clears the metrics/spans
				// knobs (an instrumented run is the same experiment), so an
				// instrumented rendering can neither be stored under nor
				// served from that key: run directly.
				if *cacheDir != "" {
					fmt.Fprintln(stderr, "tsnoop: -metrics/-spans bypasses the result store (telemetry is not cached)")
				}
				run, runErr = s.RunContext(ctx)
			default:
				run, runErr = runService(ctx, s, *cacheDir, stderr)
			}
			if err := stopProf(); err != nil {
				return err
			}
			if runErr != nil {
				return runErr
			}
			if *jsonOut {
				return writeCellJSON(stdout, s, run)
			}
			fmt.Fprintf(stdout, "%s / %s / %s (%d nodes)\n", s.Benchmark, s.Protocol, s.Network, s.Nodes)
			if s.Seeds > 1 {
				fmt.Fprintf(stdout, "best of %d runs (seeds %d..%d)\n", s.Seeds, s.Seed, s.Seed+uint64(s.Seeds-1))
			}
			if _, err = io.WriteString(stdout, run.Summary()); err != nil {
				return err
			}
			if run.Metrics != nil {
				_, err = io.WriteString(stdout, run.Metrics.Summary())
			}
			return err
		}
	},
}

// traceRingCap bounds the -trace-out span ring: 1M spans (~48 MB) is
// far beyond any smoke-sized run; longer runs wrap, dropping the
// oldest spans, and the drop count is reported on stderr.
const traceRingCap = 1 << 20

// runTraced executes the spec once with span capture and writes the
// Chrome trace-event JSON. Like -metrics, span-bearing runs bypass
// the result store (their rendering is not the canonical payload).
func runTraced(s spec.Spec, path, cacheDir string, stderr io.Writer) (*stats.Run, error) {
	if cacheDir != "" {
		fmt.Fprintln(stderr, "tsnoop: -trace-out bypasses the result store (spans are not cached)")
	}
	log := obs.NewSpanLog(traceRingCap)
	run, err := s.RunTraced(log)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := obs.WriteChromeTrace(f, log); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if n := log.Dropped(); n > 0 {
		fmt.Fprintf(stderr, "tsnoop: span ring wrapped, oldest %d spans dropped from %s\n", n, path)
	}
	fmt.Fprintf(stderr, "tsnoop: wrote %d spans to %s (open in Perfetto or chrome://tracing)\n", log.Len(), path)
	return run, nil
}

// runService executes the spec through the service: a previously
// computed spec (same canonical hash) in the -cache store is served
// without simulation, a fresh one is computed (and stored when -cache
// names a directory). Output is byte-identical either way.
func runService(ctx context.Context, s spec.Spec, cacheDir string, stderr io.Writer) (*stats.Run, error) {
	sv, err := newService(ctx, cacheDir, s.Workers)
	if err != nil {
		return nil, err
	}
	res, err := sv.Do(ctx, s)
	if err != nil {
		return nil, err
	}
	if res.Cached {
		fmt.Fprintf(stderr, "tsnoop: served from the result store (key %s)\n", res.Key[:12])
	}
	return res.Run()
}

// newService opens the service the simulating subcommands execute
// through: memory-only when dir is empty, else over the result store
// dir names. The command context is the job lifecycle: Ctrl-C cancels
// simulations.
func newService(ctx context.Context, dir string, workers int) (*service.Service, error) {
	return service.New(service.Config{Dir: dir, Workers: workers, BaseContext: ctx})
}

// errTelemetry rejects -metrics/-spans on the multi-spec subcommands:
// their specs run through the service, which answers the experiment
// and strips telemetry.
func errTelemetry(s spec.Spec, cmd string) error {
	if s.Metrics || s.Spans {
		return fmt.Errorf("%s: -metrics/-spans instrument single runs only; use run -metrics or run -spans", cmd)
	}
	return nil
}

// writeCellJSON renders one run as an indented cell-result object. The
// shape matches the grid subcommand's streamed cells, so one decoder
// reads both.
func writeCellJSON(w io.Writer, s spec.Spec, run *stats.Run) error {
	cr := harness.CellResult{
		Cell: harness.Cell{Benchmark: s.Benchmark, Protocol: s.Protocol, Network: s.Network},
		Best: run,
	}
	data, err := json.MarshalIndent(cr, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// startProfiles starts the requested pprof profiles and returns the
// function that finishes them.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return nil
	}, nil
}
