// Package spec defines the experiment configuration surface of the
// library: one declarative value, Spec, that names everything a single
// simulation needs — benchmark, protocol, network, machine size, seeds,
// phase quotas, and the timestamp-snooping design knobs — and that the
// rest of the system consumes instead of ad-hoc parameter lists or
// mutation hooks.
//
// A Spec is built with functional options,
//
//	s := spec.New("OLTP", spec.WithProtocol("TS-Snoop"), spec.WithNodes(32))
//
// validated in exactly one place (Validate), and round-trips losslessly
// to JSON (JSON / FromJSON) and to a command-line flag set (Bind / Args /
// FromArgs), so programs, files, and CLI invocations all speak the same
// configuration language. Spec.Run executes it.
package spec

import (
	"fmt"
	"slices"

	"tsnoop/internal/system"
	"tsnoop/internal/workload"
)

// Benchmarks lists the paper's workload names in presentation order.
func Benchmarks() []string { return workload.Names() }

// Protocols lists the protocol names in the paper's presentation order.
var Protocols = []string{system.ProtoTSSnoop, system.ProtoDirClassic, system.ProtoDirOpt}

// Networks lists the network names in the paper's presentation order.
var Networks = []string{system.NetButterfly, system.NetTorus}

// Spec is one experiment configuration. The zero value is not runnable;
// construct Specs with New or Default so the machine defaults (slack 1,
// one token per port, prefetch on) are in place, then adjust fields or
// apply options.
//
// Field conventions: 0 means "use the default" for Warmup, Quota,
// QuotaScale, WarmupScale, Workers, BlockBytes, and CacheBytes. A
// negative Warmup requests an explicitly empty warm-up phase.
type Spec struct {
	// Benchmark is a workload name: a paper benchmark (OLTP, DSS, apache,
	// altavista, barnes) or a scheme name such as trace:<path>.
	Benchmark string `json:"benchmark"`
	// Protocol is TS-Snoop, DirClassic, or DirOpt.
	Protocol string `json:"protocol"`
	// Network is butterfly or torus.
	Network string `json:"network"`
	// Nodes is the processor count (16 in the paper).
	Nodes int `json:"nodes"`

	// Seed drives the workload and perturbation randomness.
	Seed uint64 `json:"seed"`
	// Seeds is the number of perturbed copies Run executes (seed, seed+1,
	// ...); the minimum-runtime run is reported, the paper's rule.
	Seeds int `json:"seeds"`
	// Workers bounds concurrent simulations (0 = one per CPU, 1 = serial).
	Workers int `json:"workers"`

	// Warmup is the warm-up memory operations per processor (0 = default,
	// negative = explicitly none).
	Warmup int `json:"warmup"`
	// Quota is the measured memory operations per processor (0 = the
	// benchmark's default).
	Quota int `json:"quota"`
	// QuotaScale scales the default measured quota (0 or 1 = full scale).
	QuotaScale float64 `json:"quota_scale"`
	// WarmupScale scales the default warm-up quota (0 or 1 = full scale).
	WarmupScale float64 `json:"warmup_scale"`

	// PerturbNS, when positive, adds uniform random delay in [0, PerturbNS)
	// nanoseconds to protocol responses (the stability methodology).
	PerturbNS int64 `json:"perturb_ns"`

	// Timestamp-snooping design knobs (the Section 6 ablations).
	Slack           int  `json:"slack"`
	TokensPerPort   int  `json:"tokens_per_port"`
	Prefetch        bool `json:"prefetch"`
	EarlyProcessing bool `json:"early_processing"`
	Contention      bool `json:"contention"`
	MOSI            bool `json:"mosi"`
	Multicast       bool `json:"multicast"`
	// PredictorSize bounds the multicast owner predictor (0 = unbounded,
	// negative = disabled).
	PredictorSize int `json:"predictor_size"`

	// Verify re-enables the address network's internal ordering
	// assertions for TS-Snoop runs (tsnet.Config.Verify). Off by
	// default: the assertions are pure instrumentation — they can never
	// change a run's statistics — and cost wall time, so experiment runs
	// skip them. The network and protocol test
	// suites keep them on independently of this knob.
	//
	// The field is omitted from JSON when false — the one exception to
	// the emit-every-field rule — so the canonical rendering (and hence
	// every Canonical() store key) of all pre-existing specs is
	// unchanged by the knob's introduction: result stores stay warm
	// across the upgrade.
	Verify bool `json:"verify,omitempty"`

	// Metrics attaches an obs.Probe to the simulation and surfaces its
	// deterministic telemetry snapshot as the result's "metrics" block.
	// Like Verify, it is pure instrumentation — the probe records
	// counters keyed to simulated time and can never change a run's
	// statistics — and like Verify it follows the omitempty exception:
	// Normalize clears it, so enabling telemetry never changes a
	// Canonical() store key.
	Metrics bool `json:"metrics,omitempty"`

	// Spans additionally enables transaction-lifecycle span recording:
	// the probe aggregates per-phase latency histograms, surfaced as
	// the metrics block's "latency_breakdown" section. Pure
	// instrumentation like Verify and Metrics, with the same omitempty
	// exception: Normalize clears it, so tracing a spec never changes
	// its Canonical() store key.
	Spans bool `json:"spans,omitempty"`

	// Cache geometry overrides (0 = the paper's 4 MB / 64 B default).
	BlockBytes int `json:"block_bytes"`
	CacheBytes int `json:"cache_bytes"`
}

// Option adjusts a Spec under construction.
type Option func(*Spec)

// Default returns the paper's default single-run configuration: OLTP on
// timestamp snooping over the 16-node butterfly, seed 1, one run.
func Default() Spec {
	return Spec{
		Benchmark:     "OLTP",
		Protocol:      system.ProtoTSSnoop,
		Network:       system.NetButterfly,
		Nodes:         16,
		Seed:          1,
		Seeds:         1,
		QuotaScale:    1,
		WarmupScale:   1,
		Slack:         1,
		TokensPerPort: 1,
		Prefetch:      true,
	}
}

// New builds a Spec for a benchmark from the defaults plus options.
func New(benchmark string, opts ...Option) Spec {
	s := Default()
	s.Benchmark = benchmark
	for _, opt := range opts {
		opt(&s)
	}
	return s
}

// WithProtocol selects the coherence protocol.
func WithProtocol(name string) Option { return func(s *Spec) { s.Protocol = name } }

// WithNetwork selects the interconnect.
func WithNetwork(name string) Option { return func(s *Spec) { s.Network = name } }

// WithNodes sets the processor count.
func WithNodes(n int) Option { return func(s *Spec) { s.Nodes = n } }

// WithSeed sets the base random seed.
func WithSeed(seed uint64) Option { return func(s *Spec) { s.Seed = seed } }

// WithSeeds sets how many perturbed copies Run executes.
func WithSeeds(n int) Option { return func(s *Spec) { s.Seeds = n } }

// WithWorkers bounds concurrent simulations (0 = one per CPU).
func WithWorkers(n int) Option { return func(s *Spec) { s.Workers = n } }

// WithWarmup sets the warm-up quota per processor (negative = none).
func WithWarmup(n int) Option { return func(s *Spec) { s.Warmup = n } }

// WithQuota sets the measured quota per processor.
func WithQuota(n int) Option { return func(s *Spec) { s.Quota = n } }

// WithQuotaScale scales the default measured quota.
func WithQuotaScale(f float64) Option { return func(s *Spec) { s.QuotaScale = f } }

// WithWarmupScale scales the default warm-up quota.
func WithWarmupScale(f float64) Option { return func(s *Spec) { s.WarmupScale = f } }

// WithPerturbNS sets the maximum response perturbation in nanoseconds.
func WithPerturbNS(ns int64) Option { return func(s *Spec) { s.PerturbNS = ns } }

// WithSlack sets the initial slack S (TS-Snoop).
func WithSlack(n int) Option { return func(s *Spec) { s.Slack = n } }

// WithTokensPerPort sets the token count per switch port (TS-Snoop).
func WithTokensPerPort(n int) Option { return func(s *Spec) { s.TokensPerPort = n } }

// WithoutPrefetch disables optimization 1 (TS-Snoop).
func WithoutPrefetch() Option { return func(s *Spec) { s.Prefetch = false } }

// WithEarlyProcessing enables optimization 2 (TS-Snoop).
func WithEarlyProcessing() Option { return func(s *Spec) { s.EarlyProcessing = true } }

// WithContention enables switch contention modelling (TS-Snoop).
func WithContention() Option { return func(s *Spec) { s.Contention = true } }

// WithMOSI upgrades TS-Snoop from MSI to MOSI (the Owned state).
func WithMOSI() Option { return func(s *Spec) { s.MOSI = true } }

// WithMulticast enables multicast snooping for GETS (TS-Snoop).
func WithMulticast() Option { return func(s *Spec) { s.Multicast = true } }

// WithPredictorSize bounds the multicast owner predictor.
func WithPredictorSize(n int) Option { return func(s *Spec) { s.PredictorSize = n } }

// WithVerify re-enables the address network's internal ordering
// assertions (instrumentation only; results are identical either way).
func WithVerify() Option { return func(s *Spec) { s.Verify = true } }

// WithMetrics attaches the deterministic telemetry probe to the run
// (instrumentation only; statistics are identical either way).
func WithMetrics() Option { return func(s *Spec) { s.Metrics = true } }

// WithSpans enables transaction-lifecycle span recording and the
// latency_breakdown metrics section (instrumentation only; statistics
// are identical either way).
func WithSpans() Option { return func(s *Spec) { s.Spans = true } }

// WithBlockBytes overrides the cache block size.
func WithBlockBytes(n int) Option { return func(s *Spec) { s.BlockBytes = n } }

// WithCacheBytes overrides the per-node cache capacity.
func WithCacheBytes(n int) Option { return func(s *Spec) { s.CacheBytes = n } }

// Validate checks the whole Spec — names and machine shape — and returns
// a one-line error naming the offending field and the valid values. It
// is the single validation point behind Run, the harness, and every
// tsnoop subcommand.
func (s Spec) Validate() error {
	if err := workload.CheckName(s.Benchmark); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	return s.validateMachine()
}

// validateMachine checks everything except the benchmark name, for
// callers that supply their own workload generator.
func (s Spec) validateMachine() error {
	if !slices.Contains(Protocols, s.Protocol) {
		return fmt.Errorf("spec: unknown protocol %q (have %v)", s.Protocol, Protocols)
	}
	if !slices.Contains(Networks, s.Network) {
		return fmt.Errorf("spec: unknown network %q (have %v)", s.Network, Networks)
	}
	if s.Nodes < 1 {
		return fmt.Errorf("spec: nodes must be at least 1, got %d", s.Nodes)
	}
	if s.Seeds < 1 {
		return fmt.Errorf("spec: seeds must be at least 1, got %d", s.Seeds)
	}
	if s.Workers < 0 {
		return fmt.Errorf("spec: workers must not be negative, got %d", s.Workers)
	}
	if s.Quota < 0 {
		return fmt.Errorf("spec: quota must not be negative, got %d", s.Quota)
	}
	if s.QuotaScale < 0 || s.WarmupScale < 0 {
		return fmt.Errorf("spec: scale factors must not be negative, got %g/%g", s.QuotaScale, s.WarmupScale)
	}
	if s.PerturbNS < 0 {
		return fmt.Errorf("spec: perturb-ns must not be negative, got %d", s.PerturbNS)
	}
	if s.Slack < 0 {
		return fmt.Errorf("spec: slack must not be negative, got %d", s.Slack)
	}
	if s.TokensPerPort < 1 || s.TokensPerPort > system.MaxTokensPerPort {
		return fmt.Errorf("spec: tokens-per-port must be 1 to %d, got %d", system.MaxTokensPerPort, s.TokensPerPort)
	}
	if s.BlockBytes < 0 || s.CacheBytes < 0 {
		return fmt.Errorf("spec: cache geometry must not be negative, got block %d / cache %d", s.BlockBytes, s.CacheBytes)
	}
	if err := system.CheckShape(s.Network, s.Nodes, s.Protocol, s.Multicast); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	return nil
}
