package spec

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file is the Spec <-> flag-set bridge. Every tsnoop subcommand
// parses its command line through Bind, so the flag vocabulary cannot
// drift between tools, and Args renders a Spec back into that
// vocabulary (FromArgs(s.Args()) == s).

// notPrefetch adapts the Prefetch field to the -no-prefetch flag: the
// flag's truth is the field's negation.
type notPrefetch struct{ b *bool }

func (v notPrefetch) String() string {
	if v.b == nil {
		return "false"
	}
	return strconv.FormatBool(!*v.b)
}

func (v notPrefetch) Set(raw string) error {
	on, err := strconv.ParseBool(raw)
	if err != nil {
		return err
	}
	*v.b = !on
	return nil
}

func (v notPrefetch) IsBoolFlag() bool { return true }

// Bind registers the canonical experiment flag set on fs, parsing into
// s. Flag defaults are s's current values, so subcommands preset their
// own defaults by adjusting the Spec before binding.
func (s *Spec) Bind(fs *flag.FlagSet) {
	fs.StringVar(&s.Benchmark, "benchmark", s.Benchmark, "workload: "+strings.Join(Benchmarks(), ", ")+", or trace:<path>")
	fs.StringVar(&s.Protocol, "protocol", s.Protocol, "protocol: "+strings.Join(Protocols, ", "))
	fs.StringVar(&s.Network, "network", s.Network, "network: "+strings.Join(Networks, ", "))
	fs.IntVar(&s.Nodes, "nodes", s.Nodes, "processor count")
	fs.Uint64Var(&s.Seed, "seed", s.Seed, "base random seed")
	fs.IntVar(&s.Seeds, "seeds", s.Seeds, "perturbed runs (seed, seed+1, ...); the minimum runtime is reported")
	fs.IntVar(&s.Workers, "workers", s.Workers, "concurrent simulations (0 = one per CPU, 1 = serial)")
	fs.IntVar(&s.Warmup, "warmup", s.Warmup, "warm-up memory operations per processor (0 = default, negative = none)")
	fs.IntVar(&s.Quota, "quota", s.Quota, "measured memory operations per processor (0 = benchmark default)")
	fs.Float64Var(&s.QuotaScale, "scale", s.QuotaScale, "measured-quota scale factor (1 = full scale)")
	fs.Float64Var(&s.WarmupScale, "warmup-scale", s.WarmupScale, "warm-up-quota scale factor (1 = full scale)")
	fs.Int64Var(&s.PerturbNS, "perturb-ns", s.PerturbNS, "max response perturbation in ns")
	fs.IntVar(&s.Slack, "slack", s.Slack, "initial slack S (TS-Snoop)")
	fs.IntVar(&s.TokensPerPort, "tokens", s.TokensPerPort, "tokens per switch port (TS-Snoop)")
	fs.Var(notPrefetch{&s.Prefetch}, "no-prefetch", "disable optimization 1 (TS-Snoop)")
	fs.BoolVar(&s.EarlyProcessing, "early-processing", s.EarlyProcessing, "enable optimization 2 (TS-Snoop)")
	fs.BoolVar(&s.Contention, "contention", s.Contention, "model switch contention (TS-Snoop)")
	fs.BoolVar(&s.MOSI, "mosi", s.MOSI, "use the Owned state (MOSI extension, TS-Snoop)")
	fs.BoolVar(&s.Multicast, "multicast", s.Multicast, "multicast snooping for GETS (TS-Snoop)")
	fs.IntVar(&s.PredictorSize, "predictor", s.PredictorSize, "multicast predictor entries (0 unbounded, <0 disabled)")
	fs.BoolVar(&s.Verify, "verify", s.Verify, "enable the address network's internal ordering assertions (TS-Snoop)")
	fs.BoolVar(&s.Metrics, "metrics", s.Metrics, "record deterministic simulator telemetry (kernel, network, protocol) in the result")
	fs.BoolVar(&s.Spans, "spans", s.Spans, "record transaction-lifecycle spans (adds the latency_breakdown metrics section)")
	fs.IntVar(&s.BlockBytes, "block-bytes", s.BlockBytes, "cache block size override in bytes (0 = default)")
	fs.IntVar(&s.CacheBytes, "cache-bytes", s.CacheBytes, "per-node cache capacity override in bytes (0 = default)")
}

// FlagNames lists every flag Bind registers — the canonical experiment
// flag vocabulary each subcommand must expose.
func FlagNames() []string {
	var names []string
	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	s := Default()
	s.Bind(fs)
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	return names
}

// Args renders the Spec as the explicit command-line argument list the
// Bind flag set parses, one -name=value per flag in Bind's name order:
// FromArgs(s.Args()) reproduces s exactly. It binds a copy of s, so the
// list cannot drift from Bind's vocabulary.
func (s Spec) Args() []string {
	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	s.Bind(fs)
	var args []string
	fs.VisitAll(func(f *flag.Flag) { args = append(args, "-"+f.Name+"="+f.Value.String()) })
	return args
}

// FromArgs parses a command-line rendering back into a Spec, starting
// from the defaults (so omitted flags keep their default values).
func FromArgs(args []string) (Spec, error) {
	s := Default()
	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return Spec{}, fmt.Errorf("spec: %w", err)
	}
	if fs.NArg() > 0 {
		return Spec{}, fmt.Errorf("spec: unexpected non-flag arguments %v", fs.Args())
	}
	return s, nil
}
