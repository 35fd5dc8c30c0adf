// Command tsbench is tsnoop's benchmark: one command that measures the
// paths a user waits on end to end, and breaks them down layer by
// layer. Four workloads cover them: one spec.Default() run (canonical),
// the Figure 3/4 grid through the service (paper_grid), and reading
// back stored and submitting fresh specs over HTTP against a 2-node
// cluster (service_read, service_write). See bench/README.md.
//
// Build and run it from the repository root through bench/run.sh:
//
//	bash bench/run.sh                          # every workload, each in its own process
//	bash bench/run.sh -workload canonical -seed 7
//	bash bench/run.sh -workload paper_grid -trace 1
//	bash bench/run.sh -compare a.ndjson b.ndjson
//
// A single-workload run prints "workload metric value unit" lines and,
// as its last line, one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics, or with -trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// An end-to-end run sets its workload up at least minSetups times, and
// again while the set-ups so far took less than a second (up to
// maxSetups), so that short set-ups get a steady median. setup_s is
// their median; the last set-up is the one measured.
const (
	minSetups = 3
	maxSetups = 50
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: every workload, each in its own child process)")
	seed := fs.Uint64("seed", 1, "input seed: spec seeds, key choice and entry-node choice")
	seconds := fs.Float64("seconds", 15, "measured seconds per workload run")
	traced := fs.Int("trace", 0, "1 = traced run, reporting per-layer metrics instead of end-to-end ones")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes its profile, spans and layers")
	out := fs.String("out", "", "append each workload run's result to this file as one JSON line")
	compareA := fs.String("compare", "", "compare result file `A` against the result file named by the one argument")
	claim := fs.String("claim", "", "with -compare: the `workload/metric` the change claims to improve")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareA != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "tsbench: [-claim workload/metric] -compare A.ndjson B.ndjson")
			return 2
		}
		if err := compare(stdout, "BENCHMARK.json", *compareA, fs.Arg(0), *claim); err != nil {
			fmt.Fprintf(stderr, "tsbench: %v\n", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	cfg := config{
		seed:      *seed,
		seconds:   *seconds,
		setups:    minSetups,
		setupTime: time.Second,
		trace:     *traced == 1,
		traceDir:  *traceDir,
	}
	if *name == "" {
		return runAll(cfg, *out, stdout, stderr)
	}
	setup := lookup(*name)
	if setup == nil {
		fmt.Fprintf(stderr, "tsbench: unknown workload %q\n", *name)
		return 2
	}
	if cfg.seed == 1 {
		if err := json.Unmarshal(seedDigests, &cfg.digests); err != nil {
			fmt.Fprintf(stderr, "tsbench: digests: %v\n", err)
			return 1
		}
	}
	res, err := runWorkload(*name, setup, cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "tsbench: %s: %v\n", *name, err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, record{*name, cfg.seed, *traced, res}); err != nil {
			fmt.Fprintf(stderr, "tsbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "tsbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func lookup(name string) func(config) (instance, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.setup
		}
	}
	return nil
}

// runAll runs every workload in a child process of its own, so each
// one's peak RSS is its own, and fails if any of them failed.
func runAll(cfg config, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "tsbench: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatUint(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace-dir", cfg.traceDir}
		if cfg.trace {
			args = append(args, "-trace", "1")
		}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "tsbench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// record is one workload run as -out stores it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runWorkload sets a workload up, measures it, checks its outputs and
// prints its metrics, one line each.
func runWorkload(name string, setup func(config) (instance, error), cfg config, stdout, stderr io.Writer) (result, error) {
	if cfg.trace {
		return runTraced(name, setup, cfg, stdout, stderr)
	}
	var setupS []float64
	var inst instance
	for spent := time.Duration(0); ; {
		start := time.Now()
		in, err := setup(cfg)
		if err != nil {
			return result{}, err
		}
		d := time.Since(start)
		spent += d
		setupS = append(setupS, d.Seconds())
		if n := len(setupS); n >= cfg.setups && (spent >= cfg.setupTime || n >= maxSetups) {
			inst = in
			break
		}
		in.close()
	}
	defer inst.close()
	m := measure(inst, cfg.duration(), cfg.seed, nil)
	rss := peakRSSMB()
	res := newResult(m, inst.verify(), stderr)
	ops := max(m.ops(), 1)
	vals := map[string]float64{
		"setup_s":            median(setupS),
		"ops_per_s":          m.ops() / m.wall.Seconds(),
		"alloc_bytes_per_op": float64(m.allocs) / ops,
		"peak_rss_mb":        rss,
	}
	res.Metrics = metricsOf(endToEnd, vals)
	printMetrics(stdout, name, endToEnd, res.Metrics)
	// Printed but not bounded: the service workloads' request latency is
	// bimodal, so their median moves by up to 40% between runs, and CPU
	// time per operation drifts with the host by more than the bound
	// (see bench/README.md). A tail percentile is printed only with at
	// least ten samples beyond it.
	info := map[string]float64{"samples": m.ops(), "fail_frac": float64(res.Failed) / float64(res.Attempted),
		"latency_p50_ms": ms(m.quantile(0.5)), "cpu_ms_per_op": ms(m.cpu) / ops}
	infoDefs := []metricDef{{"samples", "count"}, {"fail_frac", "ratio"}, {"latency_p50_ms", "ms"}, {"cpu_ms_per_op", "ms"}}
	if len(m.lats) >= 1000 {
		info["latency_p99_ms"] = ms(m.quantile(0.99))
		infoDefs = append(infoDefs, metricDef{"latency_p99_ms", "ms"})
	}
	printMetrics(stdout, name, infoDefs, metricsOf(infoDefs, info))
	return res, nil
}

// runTraced sets a workload up once and measures it untraced and then
// with the CPU profiler on and spans recorded around every operation.
// Then it probes each layer with the workload's inputs and writes
// <name>.cpu.pprof, <name>.spans.json and <name>.layers.json.
func runTraced(name string, setup func(config) (instance, error), cfg config, stdout, stderr io.Writer) (result, error) {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return result{}, err
	}
	inst, err := setup(cfg)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	// Untraced quarters on both sides of the traced half, so drift in
	// the host's speed does not read as tracing overhead.
	quarter := cfg.duration() / 4
	before := measure(inst, quarter, cfg.seed, nil)
	tr := newTracer()
	profPath := filepath.Join(cfg.traceDir, name+".cpu.pprof")
	traced, err := profile(profPath, func() measurement { return measure(inst, 2*quarter, cfg.seed, tr) })
	if err != nil {
		return result{}, err
	}
	plain := before.merge(measure(inst, quarter, cfg.seed, nil))
	shares, err := cpuShares(profPath)
	if err != nil {
		return result{}, err
	}
	vals, ladder, err := probeLayers(inst, tr)
	if err != nil {
		return result{}, err
	}
	for l, v := range shares {
		vals["cpu."+l] = v
	}
	ops := max(plain.ops(), 1)
	vals["sim.accesses_per_s"] = float64(inst.simAccesses()) * plain.ops() / plain.wall.Seconds()
	vals["parallel.busy_frac"] = float64(plain.cpu) / (float64(plain.wall) * float64(runtime.GOMAXPROCS(0)))
	vals["cpu_ms_per_op"] = ms(plain.cpu) / ops
	vals["store.hit_ratio"] = ratio(plain.ctr.storeHits, plain.ctr.storeHits+plain.ctr.storeMisses)
	vals["cluster.forwards"] = float64(plain.ctr.forwards) / ops
	vals["cluster.forward_errors"] = float64(plain.ctr.forwardErrs) / ops
	vals["cluster.replicated"] = float64(plain.ctr.replicated) / ops
	vals["runtime.gc_per_op"] = float64(plain.gcs) / ops
	vals["latency_p50_ms"] = ms(plain.quantile(0.5))
	vals["latency_p99_ms"] = ms(plain.quantile(0.99))
	vals["samples"] = plain.ops()
	vals["trace_overhead_frac"] = 0
	if m := plain.mean(); m > 0 {
		vals["trace_overhead_frac"] = float64(traced.mean())/float64(m) - 1
	}

	res := newResult(plain.merge(traced), inst.verify(), stderr)
	res.Metrics = metricsOf(perLayer, vals)
	printMetrics(stdout, name, perLayer, res.Metrics)
	if err := tr.write(filepath.Join(cfg.traceDir, name+".spans.json")); err != nil {
		return result{}, err
	}
	return res, writeJSON(filepath.Join(cfg.traceDir, name+".layers.json"), struct {
		Workload string            `json:"workload"`
		Seed     uint64            `json:"seed"`
		Metrics  map[string]metric `json:"metrics"`
		Ladder   []rung            `json:"ladder"`
	}{name, cfg.seed, res.Metrics, ladder})
}

// profile runs fn with the CPU profiler writing to path.
func profile(path string, fn func() measurement) (measurement, error) {
	f, err := os.Create(path)
	if err != nil {
		return measurement{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return measurement{}, err
	}
	m := fn()
	pprof.StopCPUProfile()
	return m, f.Close()
}

// newResult counts the end-of-run verification as one more attempted
// operation and reports the first failure on stderr.
func newResult(m measurement, verr error, stderr io.Writer) result {
	res := result{Attempted: m.attempted + 1, Failed: m.failed}
	if m.firstErr != nil {
		fmt.Fprintf(stderr, "tsbench: %d of %d operations failed, first: %v\n", m.failed, m.attempted, m.firstErr)
	}
	if verr != nil {
		res.Failed++
		fmt.Fprintf(stderr, "tsbench: verification failed: %v\n", verr)
	}
	res.Correct = res.Failed == 0
	return res
}

// metricsOf attaches each def's unit to its value.
func metricsOf(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{vals[d.name], d.unit}
	}
	return out
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
