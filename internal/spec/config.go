package spec

import (
	"context"
	"fmt"

	"tsnoop/internal/obs"
	"tsnoop/internal/parallel"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/system"
	"tsnoop/internal/workload"

	// Registers the trace:<path> workload scheme so trace names resolve
	// and validate everywhere a Spec is used.
	_ "tsnoop/internal/trace"
)

// scale applies a quota scale factor with a floor of one operation; a
// factor of zero means "unscaled".
func scale(v int, f float64) int {
	if f == 0 {
		return v
	}
	n := int(float64(v) * f)
	if n < 1 {
		n = 1
	}
	return n
}

// Generator resolves the spec's benchmark into a fresh workload
// generator at the spec's node count.
func (s Spec) Generator() (workload.Generator, error) {
	gen, err := workload.ByName(s.Benchmark, s.Nodes)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return gen, nil
}

// Config resolves the spec into the machine configuration one simulation
// runs: it validates the spec, resolves the benchmark, and returns both
// the config and the generator that must drive it.
func (s Spec) Config() (system.Config, workload.Generator, error) {
	if err := s.Validate(); err != nil {
		return system.Config{}, nil, err
	}
	gen, err := s.Generator()
	if err != nil {
		return system.Config{}, nil, err
	}
	cfg, err := s.ConfigFor(gen)
	if err != nil {
		return system.Config{}, nil, err
	}
	return cfg, gen, nil
}

// ConfigFor builds the machine configuration for a pre-resolved
// generator (callers that drive their own system.Build). Phase
// quotas resolve with one precedence everywhere: an explicit
// Warmup/Quota wins, then a workload that carries its own quotas (a
// recorded trace), then the benchmark defaults scaled by
// WarmupScale/QuotaScale.
func (s Spec) ConfigFor(gen workload.Generator) (system.Config, error) {
	if err := s.validateMachine(); err != nil {
		return system.Config{}, err
	}
	cfg := system.DefaultConfig(s.Protocol, s.Network)
	cfg.Nodes = s.Nodes
	cfg.Seed = s.Seed
	cfg.PerturbMax = sim.Duration(s.PerturbNS) * sim.Nanosecond
	ts := &cfg.TSSnoop
	ts.Net.InitialSlack = s.Slack
	ts.Net.TokensPerPort = s.TokensPerPort
	ts.Net.Contention = s.Contention
	ts.Net.Verify = s.Verify
	ts.Prefetch = s.Prefetch
	ts.EarlyProcessing = s.EarlyProcessing
	ts.UseOwnedState = s.MOSI
	ts.Multicast = s.Multicast
	ts.PredictorSize = s.PredictorSize
	cfg.Metrics = s.Metrics
	cfg.Spans = s.Spans
	if s.BlockBytes > 0 {
		cfg.Cache.BlockBytes = s.BlockBytes
	}
	if s.CacheBytes > 0 {
		cfg.Cache.SizeBytes = s.CacheBytes
	}

	warmup := scale(cfg.WarmupPerCPU, s.WarmupScale)
	measure := scale(workload.MeasureQuota(s.Benchmark), s.QuotaScale)
	if q, ok := gen.(workload.Quotaed); ok {
		warmup, measure = q.Quotas()
	}
	if s.Warmup > 0 {
		warmup = s.Warmup
	} else if s.Warmup < 0 {
		warmup = 0
	}
	if s.Quota > 0 {
		measure = s.Quota
	}
	cfg.WarmupPerCPU, cfg.MeasurePerCPU = warmup, measure
	// A zero measured quota would run an empty measurement phase and
	// report all-zero statistics; fail instead of returning bogus numbers.
	if cfg.MeasurePerCPU == 0 {
		return system.Config{}, fmt.Errorf("spec: %q resolved to a zero measured quota", s.Benchmark)
	}
	return cfg, nil
}

// runOne executes a single simulation of the spec (no seed fan-out).
func (s Spec) runOne() (*stats.Run, error) { return s.runOneLogged(nil) }

// RunTraced executes a single simulation with lifecycle spans captured
// into log (the -trace-out path). Seed fan-outs are rejected: one span
// log describes one simulation, and sharing a ring across concurrent
// seeds would interleave them.
func (s Spec) RunTraced(log *obs.SpanLog) (*stats.Run, error) {
	if s.Seeds > 1 {
		return nil, fmt.Errorf("spec: span capture requires a single seed (got seeds=%d)", s.Seeds)
	}
	s.Spans = true
	return s.runOneLogged(log)
}

// runOneLogged is runOne with an optional caller-owned span ring.
func (s Spec) runOneLogged(log *obs.SpanLog) (*stats.Run, error) {
	cfg, gen, err := s.Config()
	if err != nil {
		return nil, err
	}
	cfg.SpanLog = log
	sys, err := system.Build(cfg, gen)
	if err != nil {
		return nil, err
	}
	run, err := sys.Execute()
	if err != nil {
		return nil, err
	}
	sys.Release()
	// A trace stream that ran dry wrapped around mid-run: the statistics
	// would silently measure re-walked warm data, so fail instead.
	if w, ok := gen.(workload.Wrapping); ok && w.Wraps() > 0 {
		return nil, fmt.Errorf("spec: %q wrapped its recorded stream %d times (quotas %d+%d exceed the recording; lower them or re-record)",
			s.Benchmark, w.Wraps(), cfg.WarmupPerCPU, cfg.MeasurePerCPU)
	}
	return run, nil
}

// Run executes the spec: Seeds perturbed copies (seed, seed+1, ...)
// fan out across Workers concurrent simulations and the minimum-runtime
// run is returned — the paper's reporting rule ("we report the minimum
// run time from a set of runs whose only difference is the
// perturbation"). Results collect in seed order, so the chosen run is
// independent of the worker count.
func (s Spec) Run() (*stats.Run, error) { return s.RunContext(context.Background()) }

// RunContext is Run with early cancellation: when ctx fires, no new
// seed copies start and the first error returned is ctx's.
func (s Spec) RunContext(ctx context.Context) (*stats.Run, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s.RunSeeds(ctx, func(_ context.Context, one Spec) (*stats.Run, error) { return one.runOne() })
}

// RunSeeds is the one seed fan-out behind every execution path: it
// hands run the perturbed copies Seed, Seed+1, ... (each with Seeds=1
// and Workers=1), at most Workers at a time (0 = one per CPU), and
// returns the minimum-runtime run, keeping the earliest seed on ties.
// Results collect in seed order, so the answer is independent of
// Workers. The first error (in seed order) or ctx's cancellation is
// returned instead.
func (s Spec) RunSeeds(ctx context.Context, run func(ctx context.Context, one Spec) (*stats.Run, error)) (*stats.Run, error) {
	runs := make([]*stats.Run, 0, s.Seeds)
	for r, err := range parallel.Stream(ctx, s.Workers, s.Seeds, func(i int) (*stats.Run, error) {
		one := s
		one.Seed += uint64(i)
		one.Seeds, one.Workers = 1, 1
		return run(ctx, one)
	}) {
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return stats.Best(runs), nil
}
