package harness

import (
	"fmt"
	"strings"

	"tsnoop/internal/cache"
	"tsnoop/internal/coherence"
	"tsnoop/internal/parallel"
	"tsnoop/internal/sim"
	"tsnoop/internal/spec"
	"tsnoop/internal/stats"
	"tsnoop/internal/system"
	"tsnoop/internal/timing"
)

// Table2Row is one unloaded-latency row: the paper's analytic value and
// the value measured by running the actual protocols.
type Table2Row struct {
	Desc     string
	Analytic sim.Time
	Measured sim.Time
}

// probeEnv drives single misses through a real protocol instance.
type probeEnv struct{ sys *system.System }

// access runs one access to completion and returns its latency. An
// access that never completes fails with an error wrapping
// system.ErrDeadlock (see system.RunAccess).
func (e *probeEnv) access(node int, op coherence.Op, b coherence.Block) (sim.Time, error) {
	var lat sim.Time
	done := false
	e.sys.Proto.Access(node, op, b, func(r coherence.AccessResult) { lat = r.Latency; done = true })
	if err := system.RunAccess(e.sys.K, &done); err != nil {
		return 0, fmt.Errorf("harness: probe access of block %d by node %d: %w", b, node, err)
	}
	return lat, nil
}

// afterOwner returns the latency of req's load of b once owner has
// stored to it and the machine has settled for a microsecond.
func (e *probeEnv) afterOwner(req, owner int, b coherence.Block) (sim.Time, error) {
	if _, err := e.access(owner, coherence.Store, b); err != nil {
		return 0, err
	}
	e.settle(sim.Microsecond)
	return e.access(req, coherence.Load, b)
}

func (e *probeEnv) settle(d sim.Duration) { e.sys.K.RunUntil(e.sys.K.Now() + d) }

// newProbe builds the paper's 16-node machine with 512 KB caches and
// lets logical time reach steady state. The caller releases it.
func newProbe(network, proto string) (*probeEnv, error) {
	cfg := system.DefaultConfig(proto, network)
	cfg.Cache = cache.Config{SizeBytes: 512 * 1024, Ways: 4, BlockBytes: 64}
	sys, err := system.Build(cfg, nil)
	if err != nil {
		return nil, err
	}
	env := &probeEnv{sys: sys}
	env.settle(300 * sim.Nanosecond)
	return env, nil
}

// blockFor picks the i-th fresh block homed at the given node.
func blockFor(home, i, nodes int) coherence.Block {
	return coherence.Block(home + i*nodes)
}

// meanOverPairs averages a probe latency over every (requester, partner)
// pair with requester != partner, stopping at the first error.
func meanOverPairs(nodes int, f func(req, partner, trial int) (sim.Time, error)) (sim.Time, error) {
	var sum sim.Time
	count := 0
	trial := 0
	for req := 0; req < nodes; req++ {
		for partner := 0; partner < nodes; partner++ {
			if req == partner {
				continue
			}
			lat, err := f(req, partner, trial)
			if err != nil {
				return 0, err
			}
			sum += lat
			trial++
			count++
		}
	}
	return sim.Time(int64(sum) / int64(count)), nil
}

// Table2 regenerates the unloaded-latency table for one network by both
// computing the paper's formulas and measuring the protocols, probing
// with at most workers concurrent probes (0 = one per CPU, 1 = serial).
// Every worker count measures identical rows.
func Table2(network string, workers int) ([]Table2Row, error) {
	params := timing.Default()
	meanHops := 3
	if network == system.NetTorus {
		meanHops = 2 // the paper's stated mean of 2 links
	}
	const nodes = 16 // the paper's machine, as system.DefaultConfig builds it
	dnet := params.Dnet(meanHops)

	// The three measurements drive independent probe machines, so they
	// run concurrently; each builds its own machine and releases its
	// caches when done.
	probes := []struct {
		proto   string
		measure func(e *probeEnv) (sim.Time, error)
	}{
		// Memory latency measured on the directory protocol (its request
		// and response paths are exact).
		{system.ProtoDirOpt, func(dir *probeEnv) (sim.Time, error) {
			return meanOverPairs(nodes, func(req, home, trial int) (sim.Time, error) {
				return dir.access(req, coherence.Load, blockFor(home, trial, nodes))
			})
		}},
		// Directory 3-hop: owner takes M first, then the requester loads.
		{system.ProtoDirOpt, func(dir3 *probeEnv) (sim.Time, error) {
			return meanOverPairs(nodes, func(req, owner, trial int) (sim.Time, error) {
				home := (owner + 5) % nodes // a third party (wraps over all homes)
				if home == req {
					home = (home + 1) % nodes
				}
				return dir3.afterOwner(req, owner, blockFor(home, 1000+trial, nodes))
			})
		}},
		// Timestamp snooping cache-to-cache.
		{system.ProtoTSSnoop, func(ts *probeEnv) (sim.Time, error) {
			return meanOverPairs(nodes, func(req, owner, trial int) (sim.Time, error) {
				home := (owner + 5) % nodes
				if home == req {
					home = (home + 1) % nodes
				}
				return ts.afterOwner(req, owner, blockFor(home, 2000+trial, nodes))
			})
		}},
	}
	measured, err := parallel.Map(workers, len(probes), func(i int) (sim.Time, error) {
		e, err := newProbe(network, probes[i].proto)
		if err != nil {
			return 0, err
		}
		defer e.sys.Release()
		return probes[i].measure(e)
	})
	if err != nil {
		return nil, err
	}
	memMeasured, threeHopMeasured, tsC2CMeasured := measured[0], measured[1], measured[2]

	rows := []Table2Row{
		{Desc: "One-way latency (Dnet)", Analytic: dnet, Measured: dnet},
		{Desc: "Block from memory (Dnet+Dmem+Dnet)", Analytic: dnet + params.Dmem + dnet, Measured: memMeasured},
		{Desc: "Block from cache, timestamp snooping (Dnet+Dcache+Dnet)", Analytic: dnet + params.Dcache + dnet, Measured: tsC2CMeasured},
		{Desc: "Block from cache, directory 3 hops (Dnet+Dmem+Dnet+Dcache+Dnet)", Analytic: 3*dnet + params.Dmem + params.Dcache, Measured: threeHopMeasured},
	}
	return rows, nil
}

// RenderTable2 renders the Table 2 rows of each network with the Table2
// worker bound. The networks render sequentially so the bound caps total
// concurrent probes rather than multiplying.
func RenderTable2(workers int, networks ...string) (string, error) {
	var b strings.Builder
	for _, net := range networks {
		rows, err := Table2(net, workers)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "Table 2 (%s): unloaded latencies (analytic vs measured)\n", net)
		for _, r := range rows {
			fmt.Fprintf(&b, "  %-60s %10s %10s\n", r.Desc, r.Analytic, r.Measured)
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// Table3Row characterizes one benchmark (Table 3).
type Table3Row struct {
	Benchmark   string
	FootprintMB float64 // configured (the paper's full-scale footprint)
	TouchedMB   float64 // measured in the scaled run
	TotalMisses int64
	ThreeHopPct float64
}

// Table3Specs lists the one spec per benchmark Table 3 characterizes: a
// single unperturbed run on the butterfly with DirOpt (the paper reports
// protocol-averaged values; variation across protocols is negligible
// because the reference streams are identical).
func (e Experiment) Table3Specs() []spec.Spec {
	names := e.benchmarks()
	specs := make([]spec.Spec, len(names))
	for i, name := range names {
		specs[i] = e.cellSpec(name, system.ProtoDirOpt, system.NetButterfly)
	}
	return specs
}

// NewTable3Row characterizes one benchmark from its Table3Specs spec and
// that spec's measured run.
func NewTable3Row(s spec.Spec, run *stats.Run) (Table3Row, error) {
	gen, err := s.Generator()
	if err != nil {
		return Table3Row{}, err
	}
	return Table3Row{
		Benchmark:   s.Benchmark,
		FootprintMB: float64(gen.FootprintBytes()) / (1 << 20),
		TouchedMB:   float64(run.DataTouched) / (1 << 20),
		TotalMisses: run.TotalMisses(),
		ThreeHopPct: 100 * run.CacheToCacheFraction(),
	}, nil
}

// RenderTable3 renders Table 3 from its rows.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: benchmark characteristics (scaled runs)\n")
	fmt.Fprintf(&b, "%-10s %14s %12s %12s %10s\n",
		"benchmark", "footprint(MB)", "touched(MB)", "misses", "3-hop(%)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %14.1f %12.2f %12d %9.0f%%\n",
			r.Benchmark, r.FootprintMB, r.TouchedMB, r.TotalMisses, r.ThreeHopPct)
	}
	return b.String()
}
