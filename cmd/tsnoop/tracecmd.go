package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tsnoop/internal/coherence"
	"tsnoop/internal/spec"
	"tsnoop/internal/system"
	"tsnoop/internal/trace"
	"tsnoop/internal/workload"
)

// traceCmd captures, inspects, transforms, and replays workload trace
// files (the internal/trace format). Traces turn the simulator into a
// scenario engine: record any benchmark's reference stream once, then
// replay it bit-exactly into any protocol and network, or rewrite it
// (fold CPUs, scale the footprint, cut a window, merge streams) to
// build scenarios no generator produces.
//
//	tsnoop trace record -benchmark OLTP -o oltp.tstrace
//	tsnoop trace stat oltp.tstrace
//	tsnoop trace transform -in oltp.tstrace -fold 8 -o oltp8.tstrace
//	tsnoop trace replay -trace oltp8.tstrace -protocol DirOpt -network torus
//
// A trace file records its own machine width and phase quotas, so a
// replay reproduces the recorded run's statistics byte-identically
// (asserted by internal/trace/roundtrip_test.go). Replays also work
// anywhere a benchmark name does, via trace:<path> workload names:
//
//	tsnoop run -benchmark trace:oltp.tstrace -protocol DirOpt
var traceCmd = &command{
	name:    "trace",
	summary: "record, replay, inspect, and transform workload traces",
	raw: func(ctx context.Context, args []string, stdout, stderr io.Writer) error {
		if len(args) < 1 {
			traceUsage(stderr)
			return fmt.Errorf("trace: missing subcommand")
		}
		for _, c := range traceCommands {
			if c.name == args[0] {
				return c.exec(ctx, args[1:], stdout, stderr)
			}
		}
		traceUsage(stderr)
		return fmt.Errorf("trace: unknown subcommand %q", args[0])
	},
}

var traceCommands = []*command{traceRecordCmd, traceReplayCmd, traceStatCmd, traceTransformCmd}

func traceUsage(w io.Writer) {
	fmt.Fprint(w, "usage: tsnoop trace <command> [flags]\n\ncommands:\n")
	for _, c := range traceCommands {
		fmt.Fprintf(w, "  %-10s %s\n", c.name, c.summary)
	}
	fmt.Fprint(w, "\nrun \"tsnoop trace <command> -h\" for each command's flags\n")
}

// traceRecordCmd captures a benchmark's per-CPU stream. By default it
// draws the stream directly from the generator (fast; identical to what
// a live run consumes). With -sim it instead runs a full simulation and
// tees the stream a real protocol observed (same bytes, plus a run
// summary). The spec's quota resolution applies: -warmup/-quota
// override, a trace-backed source's own quotas come next, then the
// benchmark defaults.
var traceRecordCmd = &command{
	name:      "record",
	summary:   "capture a workload's reference stream to a trace file",
	simulates: true,
	setup: func(fs *flag.FlagSet) execFn {
		s := spec.Default()
		s.Bind(fs)
		out := fs.String("o", "", "output trace file (required)")
		useSim := fs.Bool("sim", false, "record through a live simulation (Recorder tee) instead of drawing directly")
		return func(ctx context.Context, stdout, stderr io.Writer) error {
			if *out == "" {
				return fmt.Errorf("record: -o output file is required")
			}
			cfg, gen, err := s.Config()
			if err != nil {
				return err
			}
			h := trace.Header{
				CPUs:           s.Nodes,
				Name:           gen.Name(),
				FootprintBytes: gen.FootprintBytes(),
				WarmupPerCPU:   cfg.WarmupPerCPU,
				MeasurePerCPU:  cfg.MeasurePerCPU,
			}
			if *useSim {
				f, err := os.Create(*out)
				if err != nil {
					return err
				}
				w, err := trace.NewWriter(f, h, s.Workers)
				if err != nil {
					return err
				}
				sys, err := system.Build(cfg, trace.NewRecorder(gen, w))
				if err != nil {
					return err
				}
				run, err := sys.Execute()
				if err != nil {
					f.Close()
					return err
				}
				sys.Release()
				if err := w.Close(); err != nil {
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "recorded %s via %s/%s run:\n%s", *out, s.Protocol, s.Network, run.Summary())
			} else {
				tr := trace.Capture(gen, s.Nodes, s.Seed, cfg.WarmupPerCPU, cfg.MeasurePerCPU)
				if err := tr.WriteFile(*out, s.Workers); err != nil {
					return err
				}
			}
			// Recording from a trace-backed source (-benchmark trace:<path>)
			// that ran dry would bake re-walked wrapped data into the new
			// file.
			if w, ok := gen.(workload.Wrapping); ok && w.Wraps() > 0 {
				os.Remove(*out)
				return fmt.Errorf("record: source stream wrapped %d times (its recording is shorter than %d+%d accesses per cpu); lower -warmup/-quota",
					w.Wraps(), cfg.WarmupPerCPU, cfg.MeasurePerCPU)
			}
			st, err := trace.StatFile(*out)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s: %s, %d cpus, %d accesses, %d bytes (%.2f bytes/access)\n",
				*out, st.Header.Name, st.Header.CPUs, st.Accesses(), st.FileBytes,
				float64(st.FileBytes)/float64(st.Accesses()))
			return nil
		}
	},
}

// traceReplayCmd drives a simulation from a trace file; the trace
// supplies the machine width and phase quotas.
var traceReplayCmd = &command{
	name:      "replay",
	summary:   "run a simulation driven by a trace file",
	simulates: true,
	setup: func(fs *flag.FlagSet) execFn {
		s := spec.Default()
		s.Bind(fs)
		path := fs.String("trace", "", "trace file to replay (required)")
		return func(ctx context.Context, stdout, stderr io.Writer) error {
			if *path == "" {
				return fmt.Errorf("replay: -trace file is required")
			}
			// Resolved shares its decode with the trace: resolutions inside
			// the seed fan-out, so the file is read once.
			tr, err := trace.Resolved(*path)
			if err != nil {
				return err
			}
			rs := s
			rs.Benchmark = "trace:" + *path
			rs.Nodes = tr.Header.CPUs
			run, err := rs.RunContext(ctx)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s (%s) / %s / %s (%d nodes)\n", *path, tr.Header.Name, rs.Protocol, rs.Network, rs.Nodes)
			if rs.Seeds > 1 {
				fmt.Fprintf(stdout, "best of %d perturbed replays\n", rs.Seeds)
			}
			_, err = io.WriteString(stdout, run.Summary())
			return err
		}
	},
}

// traceStatCmd prints a trace's header and stream statistics.
var traceStatCmd = &command{
	name:     "stat",
	summary:  "summarize one or more trace files",
	wantArgs: true,
	setup: func(fs *flag.FlagSet) execFn {
		workers := fs.Int("workers", 0, "decode workers for -full (0 = one per CPU)")
		full := fs.Bool("full", false, "decode the streams and report op mix and block reach")
		return func(ctx context.Context, stdout, stderr io.Writer) error {
			if fs.NArg() == 0 {
				return fmt.Errorf("stat: give one or more trace files")
			}
			for _, path := range fs.Args() {
				var st *trace.Stat
				var tr *trace.Trace
				if *full {
					// One read serves both the summary and the decoded
					// streams.
					data, err := os.ReadFile(path)
					if err != nil {
						return err
					}
					if tr, err = trace.Decode(data, *workers); err != nil {
						return fmt.Errorf("%s: %w", path, err)
					}
					st = &trace.Stat{Header: tr.Header, PerCPU: make([]int64, len(tr.Streams)), FileBytes: int64(len(data))}
					for cpu, s := range tr.Streams {
						st.PerCPU[cpu] = int64(len(s))
					}
				} else {
					var err error
					if st, err = trace.StatFile(path); err != nil {
						return err
					}
				}
				minC, maxC := st.PerCPU[0], st.PerCPU[0]
				for _, c := range st.PerCPU {
					minC, maxC = min(minC, c), max(maxC, c)
				}
				fmt.Fprintf(stdout, "%s:\n", path)
				fmt.Fprintf(stdout, "  workload     %s\n", st.Header.Name)
				fmt.Fprintf(stdout, "  cpus         %d\n", st.Header.CPUs)
				fmt.Fprintf(stdout, "  quotas       %d warm-up + %d measured per cpu\n", st.Header.WarmupPerCPU, st.Header.MeasurePerCPU)
				fmt.Fprintf(stdout, "  footprint    %.1f MB\n", float64(st.Header.FootprintBytes)/(1<<20))
				fmt.Fprintf(stdout, "  accesses     %d total (%d..%d per cpu)\n", st.Accesses(), minC, maxC)
				fmt.Fprintf(stdout, "  size         %d bytes (%.2f bytes/access)\n", st.FileBytes, float64(st.FileBytes)/float64(st.Accesses()))
				if *full {
					var stores, think int64
					blocks := map[int64]struct{}{}
					for _, s := range tr.Streams {
						for _, a := range s {
							if a.Op == coherence.Store {
								stores++
							}
							think += int64(a.Think)
							blocks[int64(a.Block)] = struct{}{}
						}
					}
					n := tr.Accesses()
					fmt.Fprintf(stdout, "  stores       %.1f%%\n", 100*float64(stores)/float64(n))
					fmt.Fprintf(stdout, "  blocks       %d distinct (%.1f MB touched at 64 B)\n", len(blocks), float64(len(blocks))*64/(1<<20))
					fmt.Fprintf(stdout, "  mean think   %.1f instructions\n", float64(think)/float64(n))
				}
			}
			return nil
		}
	},
}

// traceTransformCmd rewrites a trace through the composable passes,
// applied in a fixed order: window, then fold, then scale, then merge.
var traceTransformCmd = &command{
	name:    "transform",
	summary: "rewrite a trace (fold/scale/window/merge)",
	setup: func(fs *flag.FlagSet) execFn {
		in := fs.String("in", "", "input trace file (required)")
		out := fs.String("o", "", "output trace file (required)")
		foldN := fs.Int("fold", 0, "fold onto this many cpus (0 = keep)")
		scaleF := fs.Float64("scale", 0, "footprint scale factor (0 = keep)")
		start := fs.Int("start", 0, "window start (accesses per cpu, with -window)")
		window := fs.Int("window", 0, "window length in accesses per cpu (0 = keep all)")
		merge := fs.String("merge", "", "comma-separated traces to interleave in")
		workers := fs.Int("workers", 0, "transform/encode workers (0 = one per CPU)")
		return func(ctx context.Context, stdout, stderr io.Writer) error {
			if *in == "" || *out == "" {
				return fmt.Errorf("transform: -in and -o are required")
			}
			if *foldN < 0 || *scaleF < 0 || *start < 0 || *window < 0 {
				return fmt.Errorf("transform: -fold, -scale, -start, and -window must not be negative")
			}
			if *start > 0 && *window == 0 {
				return fmt.Errorf("transform: -start requires -window")
			}
			tr, err := trace.ReadFile(*in, *workers)
			if err != nil {
				return err
			}
			var passes []trace.Transform
			if *window > 0 {
				passes = append(passes, trace.Window(*start, *window))
			}
			if *foldN > 0 {
				passes = append(passes, trace.Fold(*foldN))
			}
			if *scaleF > 0 {
				passes = append(passes, trace.Scale(*scaleF))
			}
			if *merge != "" {
				var others []*trace.Trace
				for _, p := range strings.Split(*merge, ",") {
					o, err := trace.ReadFile(strings.TrimSpace(p), *workers)
					if err != nil {
						return err
					}
					others = append(others, o)
				}
				passes = append(passes, trace.Merge(others...))
			}
			if len(passes) == 0 {
				return fmt.Errorf("transform: nothing to do (give -fold, -scale, -window, or -merge)")
			}
			if tr, err = trace.Apply(tr, *workers, passes...); err != nil {
				return err
			}
			if err := tr.WriteFile(*out, *workers); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s: %s, %d cpus, %d accesses\n", *out, tr.Header.Name, tr.Header.CPUs, tr.Accesses())
			return nil
		}
	},
}
