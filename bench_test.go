package tsnoop

// The benchmark harness: one testing.B benchmark per table and figure in
// the paper's evaluation, plus the design-knob ablations and a few
// micro-benchmarks of the core data structures. Each figure benchmark
// reports the paper's headline metrics via b.ReportMetric:
//
//	go test -bench=Figure3 -benchmem .
//
// The figure benchmarks run at a reduced workload scale so one iteration
// stays in seconds; pass -benchtime=1x to run each exactly once.

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"testing"

	"tsnoop/internal/cache"
	"tsnoop/internal/coherence"
	"tsnoop/internal/harness"
	"tsnoop/internal/obs"
	"tsnoop/internal/service"
	"tsnoop/internal/sim"
	"tsnoop/internal/spec"
	"tsnoop/internal/stats"
	"tsnoop/internal/system"
	"tsnoop/internal/topology"
	"tsnoop/internal/trace"
	"tsnoop/internal/tsnet"
	"tsnoop/internal/workload"
)

// benchExperiment is the reduced-scale setup used by the figure benches.
// Each iteration runs on a fresh memory-only service with one worker
// per CPU; results are byte-identical to a serial run, so the reported
// paper metrics are unaffected.
func benchExperiment() harness.Experiment {
	e := harness.Default()
	e.Seeds = 1
	e.QuotaScale = 0.2
	e.WarmupScale = 0.5
	return e
}

// benchService opens a fresh memory-only service (workers 0 = one per
// CPU), so no iteration is served from an earlier one's results.
func benchService(b *testing.B, workers int) *service.Service {
	b.Helper()
	sv, err := service.New(service.Config{Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	return sv
}

// benchGrid runs one network's grid on a fresh service.
func benchGrid(b *testing.B, e harness.Experiment, workers int, network string) *harness.Grid {
	b.Helper()
	g, err := e.CollectGrid(network, benchService(b, workers).StreamGrid(context.Background(), e, network))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchFigure3(b *testing.B, network string) {
	e := benchExperiment()
	for i := 0; i < b.N; i++ {
		g := benchGrid(b, e, 0, network)
		lo, hi := g.SpeedupRange(system.ProtoDirClassic)
		lo2, hi2 := g.SpeedupRange(system.ProtoDirOpt)
		b.ReportMetric(lo*100, "minSpeedupClassic_%")
		b.ReportMetric(hi*100, "maxSpeedupClassic_%")
		b.ReportMetric(lo2*100, "minSpeedupOpt_%")
		b.ReportMetric(hi2*100, "maxSpeedupOpt_%")
	}
}

// BenchmarkFigure3Butterfly regenerates Figure 3 (left): normalized
// runtimes on the butterfly. Paper: TS-Snoop 10-28% faster than
// DirClassic, 6-28% faster than DirOpt.
func BenchmarkFigure3Butterfly(b *testing.B) { benchFigure3(b, system.NetButterfly) }

// BenchmarkFigure3Torus regenerates Figure 3 (right): normalized runtimes
// on the torus. Paper: 15-29% and 6-23% faster.
func BenchmarkFigure3Torus(b *testing.B) { benchFigure3(b, system.NetTorus) }

func benchFigure4(b *testing.B, network string) {
	e := benchExperiment()
	for i := 0; i < b.N; i++ {
		g := benchGrid(b, e, 0, network)
		lo, hi := g.ExtraTrafficRange(system.ProtoDirOpt)
		b.ReportMetric(lo*100, "minExtraTraffic_%")
		b.ReportMetric(hi*100, "maxExtraTraffic_%")
	}
}

// BenchmarkFigure4Butterfly regenerates Figure 4 (left): link traffic on
// the butterfly. Paper: TS-Snoop uses 13-43% more link bandwidth.
func BenchmarkFigure4Butterfly(b *testing.B) { benchFigure4(b, system.NetButterfly) }

// BenchmarkFigure4Torus regenerates Figure 4 (right). Paper: 17-37% more.
func BenchmarkFigure4Torus(b *testing.B) { benchFigure4(b, system.NetTorus) }

// BenchmarkTable2Butterfly regenerates Table 2's butterfly rows by
// measuring unloaded miss latencies (178/123/252 ns).
func BenchmarkTable2Butterfly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table2(system.NetButterfly, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].Measured.Nanoseconds(), "memMiss_ns")
		b.ReportMetric(rows[2].Measured.Nanoseconds(), "tsC2C_ns")
		b.ReportMetric(rows[3].Measured.Nanoseconds(), "dir3hop_ns")
	}
}

// BenchmarkTable2Torus regenerates Table 2's torus rows (means 148/93/207
// ns; the TS row includes ordering delay).
func BenchmarkTable2Torus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table2(system.NetTorus, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].Measured.Nanoseconds(), "memMiss_ns")
		b.ReportMetric(rows[2].Measured.Nanoseconds(), "tsC2C_ns")
		b.ReportMetric(rows[3].Measured.Nanoseconds(), "dir3hop_ns")
	}
}

// BenchmarkTable3 regenerates the benchmark-characteristics table,
// reporting the measured cache-to-cache fractions (paper: 43/60/40/40/43).
func BenchmarkTable3(b *testing.B) {
	e := benchExperiment()
	e.QuotaScale = 0.4
	for i := 0; i < b.N; i++ {
		rows, err := benchService(b, 0).Table3(context.Background(), e)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.ThreeHopPct, r.Benchmark+"_3hop_%")
		}
	}
}

// BenchmarkEnvelope computes the Section 5 bandwidth bounds (384 vs 240
// bytes per miss; 60% / 33% extra-bandwidth limits).
func BenchmarkEnvelope(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := harness.Envelope(system.NetButterfly, 16, 64)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(row.TSBytes), "tsBytesPerMiss")
		b.ReportMetric(row.ExtraBoundPc, "extraBound_%")
	}
}

// benchAblation measures one TS-Snoop design knob against the baseline on
// the torus (where ordering delay makes the knobs visible). Knobs are
// declarative spec options, the same vocabulary the ablation sweep uses.
func benchAblation(b *testing.B, opts ...spec.Option) {
	s := spec.New("barnes",
		append([]spec.Option{spec.WithNetwork(system.NetTorus), spec.WithWarmup(1000), spec.WithQuota(1000)}, opts...)...)
	for i := 0; i < b.N; i++ {
		run, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(run.Runtime)/1000, "simRuntime_ns")
		b.ReportMetric(float64(run.MissLatency.Mean())/1000, "missLatency_ns")
	}
}

// BenchmarkAblationBaseline is the reference point for the ablations.
func BenchmarkAblationBaseline(b *testing.B) { benchAblation(b) }

// BenchmarkAblationSlack0 sets the initial slack S to zero.
func BenchmarkAblationSlack0(b *testing.B) {
	benchAblation(b, spec.WithSlack(0))
}

// BenchmarkAblationSlack4 sets the initial slack S to four.
func BenchmarkAblationSlack4(b *testing.B) {
	benchAblation(b, spec.WithSlack(4))
}

// BenchmarkAblationNoPrefetch disables optimization 1.
func BenchmarkAblationNoPrefetch(b *testing.B) {
	benchAblation(b, spec.WithoutPrefetch())
}

// BenchmarkAblationEarlyProcessing enables optimization 2.
func BenchmarkAblationEarlyProcessing(b *testing.B) {
	benchAblation(b, spec.WithEarlyProcessing())
}

// BenchmarkAblationTokens2 doubles the tokens per input port.
func BenchmarkAblationTokens2(b *testing.B) {
	benchAblation(b, spec.WithTokensPerPort(2))
}

// BenchmarkAblationContention enables switch output-port contention
// modelling (the paper's evaluation is uncontended).
func BenchmarkAblationContention(b *testing.B) {
	benchAblation(b, spec.WithContention())
}

// BenchmarkAblationMOSI upgrades TS-Snoop to MOSI: the Owned state
// eliminates the owner-to-memory writeback on every sharing miss.
func BenchmarkAblationMOSI(b *testing.B) {
	benchAblation(b, spec.WithMOSI())
}

// BenchmarkAblationMulticast enables simplified multicast snooping:
// GETS goes to a predicted destination set instead of a full broadcast,
// cutting address traffic (the paper's first future-work direction).
func BenchmarkAblationMulticast(b *testing.B) {
	benchAblation(b, spec.WithMulticast())
}

// BenchmarkAblationMulticastMOSI combines both extensions.
func BenchmarkAblationMulticastMOSI(b *testing.B) {
	benchAblation(b, spec.WithMulticast(), spec.WithMOSI())
}

// benchSweep measures and renders one sweep over barnes on a fresh
// service.
func benchSweep(b *testing.B, e harness.Experiment, kind string) {
	b.Helper()
	sw, err := e.NewSweep(kind, "barnes", system.NetButterfly)
	if err != nil {
		b.Fatal(err)
	}
	var pts []harness.SweepPoint
	for pt, err := range benchService(b, 0).StreamPoints(context.Background(), sw.Points) {
		if err != nil {
			b.Fatal(err)
		}
		pts = append(pts, pt)
	}
	if _, err := sw.Render(pts); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSweepNodes runs the machine-size sensitivity sweep.
func BenchmarkSweepNodes(b *testing.B) {
	e := benchExperiment()
	e.QuotaScale = 0.1
	for i := 0; i < b.N; i++ {
		benchSweep(b, e, "nodes")
	}
}

// BenchmarkSweepBlockSize runs the block-size sensitivity sweep.
func BenchmarkSweepBlockSize(b *testing.B) {
	e := benchExperiment()
	for i := 0; i < b.N; i++ {
		benchSweep(b, e, "blocksize")
	}
}

// BenchmarkRunGridSerial is the serial baseline for one full Figure 3/4
// grid regeneration: a service with one simulation worker.
func BenchmarkRunGridSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchGrid(b, benchExperiment(), 1, system.NetButterfly)
	}
}

// BenchmarkRunCanonical is one spec.Default() run (OLTP, TS-Snoop,
// 16-node butterfly): the unit of work every grid and service request
// multiplies.
func BenchmarkRunCanonical(b *testing.B) {
	s := spec.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSystemBuild builds spec.Default()'s machine (16 nodes, TS-Snoop
// on the butterfly) and releases it without running: the per-simulation
// setup every grid cell and service miss pays. Released caches go back
// to the pool, so after the first iteration no L2 arrays are allocated.
func BenchmarkSystemBuild(b *testing.B) {
	cfg, gen, err := spec.Default().Config()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := system.Build(cfg, gen)
		if err != nil {
			b.Fatal(err)
		}
		s.Release()
	}
}

// BenchmarkRunGridParallel runs the same grid with one worker per CPU;
// the ratio to BenchmarkRunGridSerial is the service's speedup.
func BenchmarkRunGridParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchGrid(b, benchExperiment(), runtime.NumCPU(), system.NetButterfly)
	}
}

// --- Trace codec throughput ---

// benchCaptureTrace records a 16-CPU barnes trace spanning several
// chunks per stream, the working set for the codec benchmarks.
func benchCaptureTrace(b *testing.B) *trace.Trace {
	b.Helper()
	gen, err := workload.ByName("barnes", 16)
	if err != nil {
		b.Fatal(err)
	}
	return trace.Capture(gen, 16, 1, trace.ChunkLen/2, 2*trace.ChunkLen)
}

// benchTraceEncode measures encode throughput at a fixed worker count.
// MB/s is encoded file bytes out; accesses/s is the stream rate in.
func benchTraceEncode(b *testing.B, workers int) {
	t := benchCaptureTrace(b)
	var buf bytes.Buffer
	if err := trace.Encode(t, &buf, workers); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := trace.Encode(t, &buf, workers); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(t.Accesses())*float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
}

// benchTraceDecode measures decode throughput at a fixed worker count.
// MB/s is encoded file bytes in; accesses/s is the stream rate out.
func benchTraceDecode(b *testing.B, workers int) {
	t := benchCaptureTrace(b)
	var buf bytes.Buffer
	if err := trace.Encode(t, &buf, workers); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Decode(data, workers); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(t.Accesses())*float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkTraceEncodeSerial encodes with a single worker.
func BenchmarkTraceEncodeSerial(b *testing.B) { benchTraceEncode(b, 1) }

// BenchmarkTraceEncodeParallel encodes chunk batches across the pool;
// the ratio to the serial bench is the codec's encode speedup.
func BenchmarkTraceEncodeParallel(b *testing.B) { benchTraceEncode(b, runtime.NumCPU()) }

// BenchmarkTraceDecodeSerial decodes with a single worker.
func BenchmarkTraceDecodeSerial(b *testing.B) { benchTraceDecode(b, 1) }

// BenchmarkTraceDecodeParallel decodes chunk payloads across the pool.
func BenchmarkTraceDecodeParallel(b *testing.B) { benchTraceDecode(b, runtime.NumCPU()) }

// --- Micro-benchmarks of the core machinery ---

// nopEvent is the EventFn the kernel micro-benchmarks dispatch.
func nopEvent(any, any, int64) {}

// BenchmarkKernelEvents measures raw event dispatch throughput through
// AfterCall, whose every call is a one-item batch group.
func BenchmarkKernelEvents(b *testing.B) {
	k := sim.NewKernel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.AfterCall(1, nopEvent, nil, nil, 0)
		k.Step()
	}
}

// BenchmarkTsnetBroadcast measures one ordered broadcast end to end on the
// butterfly (21 link deliveries, 16 reorder insertions, ordering).
func BenchmarkTsnetBroadcast(b *testing.B) {
	topo := topology.MustButterfly(4)
	k := sim.NewKernel()
	run := &stats.Run{}
	cfg := tsnet.DefaultConfig()
	cfg.Verify = false
	net := tsnet.New(k, topo, cfg, &run.Traffic, run)
	delivered := 0
	for ep := 0; ep < 16; ep++ {
		net.Register(ep, func(int, uint64, any, sim.Time) { delivered++ }, nil)
	}
	net.Start()
	k.RunUntil(100 * sim.Nanosecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		want := delivered + 16
		net.Inject(i%16, nil)
		k.RunWhile(func() bool { return delivered < want })
	}
}

// BenchmarkKernelEventsProbed is BenchmarkKernelEvents with a telemetry
// probe attached: the per-dispatch overhead of -metrics on the kernel
// (two histogram observes and a couple of counter increments).
func BenchmarkKernelEventsProbed(b *testing.B) {
	k := sim.NewKernel()
	k.SetProbe(obs.NewProbe())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.AfterCall(1, nopEvent, nil, nil, 0)
		k.Step()
	}
}

// BenchmarkKernelEventsLane measures schedule+dispatch on a declared
// fixed-delay lane with a canonical-like backlog: a spec.Default() run
// keeps about 92 events pending, most of them Dswitch link transits.
func BenchmarkKernelEventsLane(b *testing.B) {
	const d = 15 * sim.Nanosecond
	k := sim.NewKernel()
	k.Lane(d)
	for i := 0; i < 92; i++ {
		k.AfterCall(d, nopEvent, nil, nil, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.AfterCall(d, nopEvent, nil, nil, 0)
		k.Step()
	}
}

// BenchmarkKernelBatch measures one item through a sim.Batch, schedule
// plus dispatch: sixteen adjacent items on a declared lane share each
// kernel event, as the address network's same-instant hops do.
func BenchmarkKernelBatch(b *testing.B) {
	const d = 15 * sim.Nanosecond
	k := sim.NewKernel()
	k.Lane(d)
	n := 0
	batch := sim.NewBatch(k, func(*int) { n++ })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		batch.Add(d, i)
		if i%16 == 15 {
			k.Step()
		}
	}
	k.Run()
}

// BenchmarkTsnetBroadcastProbed is BenchmarkTsnetBroadcast with a
// telemetry probe wired through the kernel and the address network —
// the full -metrics recording cost on the hottest simulated path.
func BenchmarkTsnetBroadcastProbed(b *testing.B) {
	topo := topology.MustButterfly(4)
	k := sim.NewKernel()
	probe := obs.NewProbe()
	k.SetProbe(probe)
	run := &stats.Run{}
	cfg := tsnet.DefaultConfig()
	cfg.Verify = false
	net := tsnet.New(k, topo, cfg, &run.Traffic, run)
	delivered := 0
	for ep := 0; ep < 16; ep++ {
		net.Register(ep, func(int, uint64, any, sim.Time) { delivered++ }, nil)
	}
	net.Start()
	k.RunUntil(100 * sim.Nanosecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		want := delivered + 16
		net.Inject(i%16, nil)
		k.RunWhile(func() bool { return delivered < want })
	}
}

// BenchmarkCacheOps measures L2 lookup+insert cost.
func BenchmarkCacheOps(b *testing.B) {
	c := cache.MustNew(cache.DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk := coherence.Block(i % 100000)
		if s, _ := c.Lookup(blk); s == cache.Invalid {
			c.Insert(blk, cache.Shared, 0)
		}
	}
}

// BenchmarkCacheSnoopProbe reproduces the snoop's access pattern: every
// broadcast is Peeked in each of 16 paper-sized L2s (32 MB together, far
// beyond a host cache), and most such probes miss. One op is one block
// probed in all 16 caches.
func BenchmarkCacheSnoopProbe(b *testing.B) {
	const nodes, blocks = 16, 1 << 20
	rng := rand.New(rand.NewSource(1))
	caches := make([]*cache.Cache, nodes)
	for n := range caches {
		caches[n] = cache.MustNew(cache.DefaultConfig())
		for i := 0; i < 2*caches[n].Sets()*caches[n].Ways(); i++ {
			caches[n].Insert(coherence.Block(rng.Intn(blocks)), cache.Shared, 0)
		}
	}
	probes := make([]coherence.Block, 1<<16)
	for i := range probes {
		probes[i] = coherence.Block(rng.Intn(blocks))
	}
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := probes[i&(len(probes)-1)]
		for _, c := range caches {
			if s, _ := c.Peek(blk); s != cache.Invalid {
				hits++
			}
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N*nodes), "hit_ratio")
}

// BenchmarkTSSnoopMiss measures a full timestamp-snooping miss
// (broadcast, ordering, memory access, data return) on the butterfly.
func BenchmarkTSSnoopMiss(b *testing.B) {
	benchProtocolMiss(b, system.ProtoTSSnoop)
}

// BenchmarkDirectoryMiss measures a full directory miss for comparison.
func BenchmarkDirectoryMiss(b *testing.B) {
	benchProtocolMiss(b, system.ProtoDirOpt)
}

func benchProtocolMiss(b *testing.B, proto string) {
	cfg := system.DefaultConfig(proto, system.NetButterfly)
	cfg.WarmupPerCPU = 1
	cfg.MeasurePerCPU = 1
	gen := workload.Uniform(1<<20, 0.0, 10, 16)
	s, err := system.Build(cfg, gen)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Execute(); err != nil {
		b.Fatal(err)
	}
	done := false
	doneFn := func(coherence.AccessResult) { done = true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done = false
		blk := coherence.Block(1<<22 + i)
		s.Proto.Access(i%16, coherence.Load, blk, doneFn)
		s.K.RunWhile(func() bool { return !done })
	}
}

// BenchmarkTSSnoopMissSteady measures the steady-state miss path: two
// nodes ping-pong stores to one block, so every access is a
// cache-to-cache GETX miss over warm protocol state. Unlike
// BenchmarkTSSnoopMiss (a cold block every iteration), this is the
// allocation-free regime the simulation spends its time in; the
// allocation-budget test TestMissAllocs pins it at zero.
func BenchmarkTSSnoopMissSteady(b *testing.B) {
	benchProtocolMissSteady(b, system.ProtoTSSnoop)
}

// BenchmarkDirectoryMissSteady is BenchmarkTSSnoopMissSteady on DirOpt:
// a warm three-hop GETX miss, pinned at zero allocations by
// TestDirectoryMissAllocs.
func BenchmarkDirectoryMissSteady(b *testing.B) {
	benchProtocolMissSteady(b, system.ProtoDirOpt)
}

func benchProtocolMissSteady(b *testing.B, proto string) {
	cfg := system.DefaultConfig(proto, system.NetButterfly)
	cfg.WarmupPerCPU = 1
	cfg.MeasurePerCPU = 1
	gen := workload.Uniform(1<<20, 0.0, 10, 16)
	s, err := system.Build(cfg, gen)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Execute(); err != nil {
		b.Fatal(err)
	}
	done := false
	doneFn := func(coherence.AccessResult) { done = true }
	const blk = coherence.Block(1 << 22)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done = false
		s.Proto.Access(i%2, coherence.Store, blk, doneFn)
		s.K.RunWhile(func() bool { return !done })
	}
}
