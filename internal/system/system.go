// Package system assembles complete target machines: a topology, a
// coherence protocol, and one processor per node driving a workload
// generator — the 16-node SPARC server of Section 4.2, parameterized so
// the sensitivity sweeps can also build 4- and 64-node variants.
package system

import (
	"errors"
	"fmt"
	"math"

	"tsnoop/internal/cache"
	"tsnoop/internal/coherence"
	"tsnoop/internal/obs"
	"tsnoop/internal/processor"
	"tsnoop/internal/protocol/directory"
	"tsnoop/internal/protocol/tssnoop"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/timing"
	"tsnoop/internal/topology"
	"tsnoop/internal/workload"
)

// Protocol names accepted by Config.
const (
	ProtoTSSnoop    = "TS-Snoop"
	ProtoDirClassic = "DirClassic"
	ProtoDirOpt     = "DirOpt"
)

// Network names accepted by Config.
const (
	NetButterfly = "butterfly"
	NetTorus     = "torus"
)

// Config describes one target machine and run.
type Config struct {
	Network  string // NetButterfly or NetTorus
	Nodes    int    // 16 in the paper; butterfly requires a square count
	Protocol string

	Params timing.Params
	Cache  cache.Config

	// WarmupPerCPU memory operations run before statistics reset;
	// MeasurePerCPU are the measured operations.
	WarmupPerCPU  int
	MeasurePerCPU int

	// Seed drives the workload and perturbation randomness.
	Seed uint64
	// PerturbMax, when positive, adds uniform random delay in
	// [0, PerturbMax) to protocol responses (the stability methodology).
	PerturbMax sim.Duration

	// TSSnoop holds timestamp snooping's design knobs (the ablations).
	// The machine's timing and cache geometry come from Params and Cache.
	TSSnoop tssnoop.Options
	// Metrics attaches an obs.Probe to the kernel, which every network,
	// protocol and processor records into, and surfaces its snapshot as
	// Run.Metrics after the measured phase. Everything the probe
	// records derives from simulated time, so the snapshot is
	// deterministic.
	Metrics bool
	// Spans additionally enables transaction-lifecycle span recording
	// on the probe (implying a probe even when Metrics is off): the
	// per-phase latency histograms surface as the metrics snapshot's
	// latency_breakdown section. Like Metrics, spans derive from
	// simulated time only and are deterministic.
	Spans bool
	// SpanLog, when non-nil and Spans is set, captures the raw span
	// stream into a caller-owned bounded ring (the -trace-out Chrome
	// export). The ring is not part of the deterministic snapshot.
	// Callers running seed fan-outs must not share one ring across
	// concurrent systems; the single-seed -trace-out path owns it.
	SpanLog *obs.SpanLog
}

// DefaultConfig is the paper's machine for the given protocol/network.
// The address network's internal ordering assertions (tsnet.Config.Verify)
// are off: they allocate nothing, but their side-table bookkeeping and
// TS-Snoop's L2 probe for every request a node skips cost ~9% of a
// default run's wall time and buy nothing on a correct build. The tsnet
// and protocol test suites, which construct their networks directly,
// keep them on.
func DefaultConfig(protocol, network string) Config {
	ts := tssnoop.DefaultOptions()
	ts.Net.Verify = false
	return Config{
		Network:       network,
		Nodes:         16,
		Protocol:      protocol,
		Params:        timing.Default(),
		Cache:         cache.DefaultConfig(),
		WarmupPerCPU:  2500,
		MeasurePerCPU: 2500,
		Seed:          1,
		TSSnoop:       ts,
	}
}

// System is an assembled machine.
type System struct {
	Cfg   Config
	K     *sim.Kernel
	Topo  *topology.Topology
	Proto coherence.Protocol
	// Core is Proto's controller core: its caches and data fabric.
	Core controller
	Run  *stats.Run

	// cpus are the machine's processors; they issue through Proto.
	cpus *processor.Set

	// running counts the processors still short of the phase's quota;
	// last is when the latest one finished.
	running int
	last    sim.Time
}

// controller is what a machine uses of its protocol's protocol.Core,
// whatever message type the core's fabric carries.
type controller interface {
	CacheState(id int, b coherence.Block) cache.State
	// Touched counts the distinct blocks accessed so far (Table 3
	// column 2): every access the processors generate is issued.
	Touched() int
}

// MaxNodes is the largest machine Build builds: 16 times the paper's
// 16-node server and 4 times the largest sweep point.
const MaxNodes = 256

// CheckShape reports why Build cannot build nodes nodes on network
// running protocol (multicast is TS-Snoop's multicast snooping), or nil:
//
//   - no machine has more than MaxNodes nodes;
//   - a butterfly needs a square node count of at least 4;
//   - a torus needs a w×h factorization with both factors at least 2;
//   - DirClassic and DirOpt keep a 64-bit sharer vector, and multicast
//     a 64-bit destination mask, so each allows at most 64 nodes.
//
// Unknown names are left to the caller. The error reads without a
// package prefix, for the caller to add its own. CheckShape allocates
// nothing on a buildable machine.
func CheckShape(network string, nodes int, protocol string, multicast bool) error {
	if _, err := shape(network, nodes); err != nil {
		return err
	}
	return protocolLimit(nodes, protocol, multicast)
}

// protocolLimit is CheckShape's rule for the protocols' 64-bit node sets.
func protocolLimit(nodes int, protocol string, multicast bool) error {
	if nodes > 64 {
		switch {
		case protocol == ProtoDirClassic || protocol == ProtoDirOpt:
			return fmt.Errorf("%s allows at most 64 nodes, got %d", protocol, nodes)
		case protocol == ProtoTSSnoop && multicast:
			return fmt.Errorf("%s multicast allows at most 64 nodes, got %d", protocol, nodes)
		}
	}
	return nil
}

// shape returns the butterfly radix, or the width of the most square
// torus factorization, of nodes nodes on network.
func shape(network string, nodes int) (int, error) {
	if nodes > MaxNodes {
		return 0, fmt.Errorf("a machine has at most %d nodes, got %d", MaxNodes, nodes)
	}
	switch network {
	case NetButterfly:
		r := int(math.Round(math.Sqrt(float64(nodes))))
		if r < 2 || r*r != nodes {
			return 0, fmt.Errorf("butterfly needs a square node count of at least 4, got %d", nodes)
		}
		return r, nil
	case NetTorus:
		best := 0
		for w := 2; w <= nodes/w; w++ {
			if nodes%w == 0 {
				best = w
			}
		}
		if best == 0 {
			return 0, fmt.Errorf("torus needs a w×h node count with both factors at least 2, got %d", nodes)
		}
		return best, nil
	}
	return 0, fmt.Errorf("unknown network %q", network)
}

// BuildTopology maps (network, nodes) to a Topology: a butterfly of
// radix sqrt(nodes), or the most square torus factorization.
func BuildTopology(network string, nodes int) (*topology.Topology, error) {
	w, err := shape(network, nodes)
	if err != nil {
		return nil, fmt.Errorf("system: %w", err)
	}
	if network == NetButterfly {
		return topology.Butterfly(w)
	}
	return topology.Torus(w, nodes/w)
}

// ErrDeadlock reports a phase whose processors stopped making progress
// before every processor reached its quota: the kernel ran out of
// events, or accesses waited a whole StallWindow while none completed.
// Execute wraps it with the simulated time and the count of accesses
// still waiting.
var ErrDeadlock = errors.New("system: processors did not finish (protocol deadlock?)")

// StallWindow is how long, in simulated time, accesses may wait with
// none completing before a run counts as deadlocked. The slowest
// unloaded miss takes about 0.26 µs, so a window is thousands of misses
// long.
const StallWindow = sim.Millisecond

// RunWatched runs k while running holds, one StallWindow at a time.
// progress reports the accesses still waiting and those completed so
// far. RunWatched returns an error wrapping ErrDeadlock when the kernel
// runs out of events, or when accesses waited through a whole window
// and none completed: TS-Snoop's token waves keep its kernel busy
// forever, so a stuck run would otherwise never return. Windows cut the
// run only between dispatches, so they change nothing it does.
func RunWatched(k *sim.Kernel, running func() bool, progress func() (waiting int, completed int64)) error {
	for limit := k.Now() + StallWindow; running(); limit += StallWindow {
		waiting, completed := progress()
		k.RunWhileBefore(limit, running)
		if w, c := progress(); running() && (k.Pending() == 0 || waiting > 0 && c == completed) {
			return fmt.Errorf("%w at %v with %d accesses pending", ErrDeadlock, k.Now(), w)
		}
	}
	return nil
}

// RunAccess runs k until *done is set, as RunWatched does: one access
// that never completes returns an error wrapping ErrDeadlock after a
// StallWindow instead of spinning on the token waves.
func RunAccess(k *sim.Kernel, done *bool) error {
	return RunWatched(k, func() bool { return !*done }, func() (int, int64) {
		if *done {
			return 0, 1
		}
		return 1, 0
	})
}

// Build assembles a machine running gen. The kernel starts at time zero.
// Each node's L2 arrays come from a pool shared by every machine of the
// same cache geometry; Release returns them once the run is over. A
// machine that is never released, such as one whose run failed, just
// leaves its arrays to the garbage collector.
func Build(cfg Config, gen workload.Generator) (*System, error) {
	topo, err := BuildTopology(cfg.Network, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	if err := protocolLimit(cfg.Nodes, cfg.Protocol, cfg.TSSnoop.Multicast); err != nil {
		return nil, fmt.Errorf("system: %w", err)
	}
	k := sim.NewKernel()
	run := &stats.Run{}
	if cfg.Metrics || cfg.Spans {
		probe := obs.NewProbe()
		if cfg.Spans {
			probe.EnableSpans(cfg.SpanLog)
		}
		k.SetProbe(probe) // before anything that records into it is built
	}

	// The paper's stability methodology perturbs message responses.
	var perturb func() sim.Duration
	if cfg.PerturbMax > 0 {
		prng := sim.NewRand(cfg.Seed ^ 0xfeed)
		perturb = func() sim.Duration { return prng.Duration(cfg.PerturbMax) }
	}
	s := &System{
		Cfg:  cfg,
		K:    k,
		Topo: topo,
		Run:  run,
	}
	switch cfg.Protocol {
	case ProtoTSSnoop:
		p := tssnoop.New(k, topo, cfg.Params, cfg.Cache, run, perturb, cfg.TSSnoop)
		s.Proto, s.Core = p, &p.Core
	case ProtoDirClassic, ProtoDirOpt:
		v := directory.Classic
		if cfg.Protocol == ProtoDirOpt {
			v = directory.Opt
		}
		p := directory.New(k, topo, cfg.Params, cfg.Cache, run, perturb, directory.Options{Variant: v, RetrySeed: cfg.Seed ^ 0x4e7247})
		s.Proto, s.Core = p, &p.Core
	default:
		return nil, fmt.Errorf("system: unknown protocol %q", cfg.Protocol)
	}
	rngs, root := make([]*sim.Rand, cfg.Nodes), sim.NewRand(cfg.Seed)
	for i := range rngs {
		rngs[i] = root.Split()
	}
	finished := func(int) { s.running, s.last = s.running-1, k.Now() }
	s.cpus = processor.NewSet(k, &s.Proto, gen, cfg.Params, run, finished, rngs)
	return s, nil
}

// runPhase executes quota operations on every processor and returns the
// phase's makespan (time from phase start until the last processor
// finished).
func (s *System) runPhase(quota int) (sim.Time, error) {
	if quota == 0 {
		return 0, nil
	}
	start := s.K.Now()
	s.running, s.last = s.Cfg.Nodes, start
	s.cpus.Start(quota)
	if err := RunWatched(s.K, func() bool { return s.running > 0 }, s.cpus.Progress); err != nil {
		return 0, err
	}
	return s.last - start, nil
}

// Execute runs warm-up, resets statistics, runs the measured phase, and
// returns the populated Run (also available as s.Run). Runtime is the
// measured phase's makespan. A phase that cannot finish returns an error
// wrapping ErrDeadlock.
func (s *System) Execute() (*stats.Run, error) {
	if _, err := s.runPhase(s.Cfg.WarmupPerCPU); err != nil {
		return nil, err
	}
	s.Run.Reset()
	// Reset the probe with the statistics so the telemetry snapshot
	// covers exactly the measured window.
	if p := s.K.Probe(); p != nil {
		p.Reset()
	}
	runtime, err := s.runPhase(s.Cfg.MeasurePerCPU)
	if err != nil {
		return nil, err
	}
	s.Run.Runtime = runtime
	s.Run.DataTouched = int64(s.Core.Touched()) * int64(s.Cfg.Cache.BlockBytes)
	if p := s.K.Probe(); p != nil {
		s.Run.Metrics = p.Finalize(int64(runtime))
	}
	return s.Run, nil
}

// Release returns the machine's caches to their pool. The Run that
// Execute returned stays valid; the machine itself must not be used
// again.
func (s *System) Release() { s.Proto.Release() }
