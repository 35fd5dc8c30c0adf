package system

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"tsnoop/internal/coherence"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/workload"
)

// mustExecute runs s, failing the test on a deadlock.
func mustExecute(t *testing.T, s *System) *stats.Run {
	t.Helper()
	run, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestBuildTopologyVariants(t *testing.T) {
	cases := []struct {
		network string
		nodes   int
		ok      bool
	}{
		{NetButterfly, 16, true},
		{NetButterfly, 4, true},
		{NetButterfly, 64, true},
		{NetButterfly, 12, false},
		{NetTorus, 16, true},
		{NetTorus, 8, true},
		{NetTorus, 7, false},
		{"ring", 16, false},
	}
	for _, c := range cases {
		_, err := BuildTopology(c.network, c.nodes)
		if (err == nil) != c.ok {
			t.Errorf("BuildTopology(%s,%d) err=%v, want ok=%v", c.network, c.nodes, err, c.ok)
		}
	}
}

func TestUnknownProtocolRejected(t *testing.T) {
	cfg := DefaultConfig("MOESI-2000", NetButterfly)
	if _, err := Build(cfg, workload.Barnes(16)); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestExecuteDeterministic(t *testing.T) {
	run := func() (sim.Time, int64) {
		cfg := DefaultConfig(ProtoTSSnoop, NetTorus)
		cfg.WarmupPerCPU = 200
		cfg.MeasurePerCPU = 400
		s, err := Build(cfg, workload.Barnes(16))
		if err != nil {
			t.Fatal(err)
		}
		r := mustExecute(t, s)
		return r.Runtime, r.Traffic.TotalLinkBytes()
	}
	rt1, tr1 := run()
	rt2, tr2 := run()
	if rt1 != rt2 || tr1 != tr2 {
		t.Fatalf("nondeterministic: %v/%d vs %v/%d", rt1, tr1, rt2, tr2)
	}
}

func TestPerturbationChangesTiming(t *testing.T) {
	base := DefaultConfig(ProtoDirOpt, NetButterfly)
	base.WarmupPerCPU = 200
	base.MeasurePerCPU = 400
	s1, _ := Build(base, workload.Barnes(16))
	r1 := mustExecute(t, s1)
	pert := base
	pert.PerturbMax = 3 * sim.Nanosecond
	s2, _ := Build(pert, workload.Barnes(16))
	r2 := mustExecute(t, s2)
	if r1.Runtime == r2.Runtime {
		t.Fatal("perturbation had no effect on runtime")
	}
}

func TestWarmupResetsStatistics(t *testing.T) {
	cfg := DefaultConfig(ProtoDirOpt, NetButterfly)
	cfg.WarmupPerCPU = 300
	cfg.MeasurePerCPU = 300
	s, err := Build(cfg, workload.Barnes(16))
	if err != nil {
		t.Fatal(err)
	}
	r := mustExecute(t, s)
	// Measured memory operations must be exactly the measured quota.
	if r.MemOps != int64(cfg.MeasurePerCPU*cfg.Nodes) {
		t.Fatalf("measured mem ops = %d, want %d", r.MemOps, cfg.MeasurePerCPU*cfg.Nodes)
	}
	if r.Runtime <= 0 {
		t.Fatal("no runtime measured")
	}
}

// Calibration: measured cache-to-cache fractions must stay within
// tolerance of Table 3's values (43/60/40/40/43 percent), the paper's
// central workload characteristic.
func TestCacheToCacheFractionsMatchTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run")
	}
	targets := map[string]float64{
		"OLTP": 0.43, "DSS": 0.60, "apache": 0.40, "altavista": 0.40, "barnes": 0.43,
	}
	const tol = 0.06
	gens := workload.Benchmarks(16)
	for _, g := range gens {
		cfg := DefaultConfig(ProtoDirOpt, NetButterfly)
		cfg.MeasurePerCPU = workload.MeasureQuota(g.Name())
		s, err := Build(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		run := mustExecute(t, s)
		got := run.CacheToCacheFraction()
		want := targets[g.Name()]
		if got < want-tol || got > want+tol {
			t.Errorf("%s cache-to-cache fraction = %.3f, want %.2f +/- %.2f", g.Name(), got, want, tol)
		}
	}
}

// Miss counts and data touched preserve Table 3's orderings.
func TestTable3Orderings(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run")
	}
	misses := map[string]int64{}
	touched := map[string]int64{}
	for _, g := range workload.Benchmarks(16) {
		cfg := DefaultConfig(ProtoDirOpt, NetButterfly)
		cfg.MeasurePerCPU = workload.MeasureQuota(g.Name())
		s, err := Build(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		run := mustExecute(t, s)
		misses[g.Name()] = run.TotalMisses()
		touched[g.Name()] = run.DataTouched
	}
	// Paper: misses 5.3M > 2.4M (altavista) >= 2.3M (apache) > 1.7M (DSS)
	// > 1.0M (barnes).
	if !(misses["OLTP"] > misses["altavista"] && misses["altavista"] > misses["DSS"] &&
		misses["apache"] > misses["DSS"] && misses["DSS"] > misses["barnes"]) {
		t.Errorf("miss-count ordering broken: %v", misses)
	}
	// Footprint: OLTP touches the most data, barnes the least.
	if !(touched["OLTP"] > touched["apache"] && touched["OLTP"] > touched["DSS"] &&
		touched["barnes"] < touched["apache"] && touched["barnes"] < touched["altavista"]) {
		t.Errorf("data-touched ordering broken: %v", touched)
	}
}

// stuckProto accepts every access and never completes one.
type stuckProto struct{ pending int }

func (p *stuckProto) Name() string { return "stuck" }
func (p *stuckProto) Pending() int { return p.pending }
func (p *stuckProto) Release()     {}
func (p *stuckProto) Access(int, coherence.Op, coherence.Block, func(coherence.AccessResult)) {
	p.pending++
}

// A phase whose accesses never complete is a typed error, not a panic,
// and names the simulated time and the pending count.
func TestExecuteDeadlockIsTypedError(t *testing.T) {
	cfg := DefaultConfig(ProtoDirOpt, NetButterfly)
	cfg.Nodes, cfg.WarmupPerCPU, cfg.MeasurePerCPU = 4, 10, 10
	s, err := Build(cfg, workload.Barnes(4))
	if err != nil {
		t.Fatal(err)
	}
	s.Proto = &stuckProto{}
	run, err := s.Execute()
	if !errors.Is(err, ErrDeadlock) || run != nil {
		t.Fatalf("Execute = %v, %v; want nil, ErrDeadlock", run, err)
	}
	if want := "with 4 accesses pending"; !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), " at ") {
		t.Fatalf("error %q lacks the simulated time or %q", err, want)
	}
}

// lossy is a protocol that loses node 3's first miss completion: the
// processor waits for it forever while the others run on.
type lossy struct {
	coherence.Protocol
	lost bool
}

func (l *lossy) Access(node int, op coherence.Op, b coherence.Block, done func(coherence.AccessResult)) {
	if node == 3 && !l.lost {
		next := done
		done = func(r coherence.AccessResult) {
			if !r.Hit && !l.lost {
				l.lost = true
				return
			}
			next(r)
		}
	}
	l.Protocol.Access(node, op, b, done)
}

// A run whose miss never completes returns ErrDeadlock under both
// protocol families: a directory's kernel runs out of events, but
// TS-Snoop's token waves keep its kernel busy, so only the stall window
// ends the run. Execute runs in a goroutine so that a run that never
// returns fails the test instead of hanging it.
func TestExecuteLostCompletionDeadlocks(t *testing.T) {
	for _, protocol := range []string{ProtoTSSnoop, ProtoDirClassic, ProtoDirOpt} {
		t.Run(protocol, func(t *testing.T) {
			cfg := DefaultConfig(protocol, NetButterfly)
			cfg.WarmupPerCPU, cfg.MeasurePerCPU = 50, 50
			s, err := Build(cfg, workload.OLTP(cfg.Nodes))
			if err != nil {
				t.Fatal(err)
			}
			s.Proto = &lossy{Protocol: s.Proto}
			errc := make(chan error, 1)
			go func() {
				_, err := s.Execute()
				errc <- err
			}()
			select {
			case err := <-errc:
				if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), "with 1 accesses pending") {
					t.Fatalf("Execute error %v, want ErrDeadlock with 1 access pending", err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("Execute still running after 60 s: the lost completion was never detected")
			}
		})
	}
}

// TS-Snoop's holder mask lets a node skip the L2 probe of a block it
// cannot hold; under Verify every skipped probe asserts that the L2 and
// the writeback buffer both miss. Over both state sets, multicast with
// a bounded predictor, early processing and torus contention, on small
// caches that evict, a verified run must pass and its statistics must
// match the unverified run's.
func TestHolderMaskVerified(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"MSI", func(*Config) {}},
		{"MOSI", func(c *Config) { c.TSSnoop.UseOwnedState = true }},
		{"multicast", func(c *Config) { c.TSSnoop.Multicast, c.TSSnoop.PredictorSize = true, 2 }},
		{"early-processing", func(c *Config) { c.TSSnoop.EarlyProcessing = true }},
		{"torus-contention", func(c *Config) { c.Network, c.TSSnoop.Net.Contention = NetTorus, true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runJSON := func(verify bool) []byte {
				cfg := DefaultConfig(ProtoTSSnoop, NetButterfly)
				cfg.WarmupPerCPU, cfg.MeasurePerCPU = 300, 600
				cfg.Cache.SizeBytes, cfg.Cache.Ways = 64*1024, 4
				cfg.PerturbMax = 3 * sim.Nanosecond
				tc.mutate(&cfg)
				cfg.TSSnoop.Net.Verify = verify
				s, err := Build(cfg, workload.OLTP(cfg.Nodes))
				if err != nil {
					t.Fatal(err)
				}
				defer s.Release()
				out, err := json.Marshal(mustExecute(t, s))
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			if got, want := runJSON(true), runJSON(false); string(got) != string(want) {
				t.Fatalf("verified run differs:\n%s\nwant\n%s", got, want)
			}
		})
	}
}
