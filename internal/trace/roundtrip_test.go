package trace_test

// Round-trip fidelity: a recorded trace, replayed, must reproduce the
// live generator's run byte-identically — same runtime, same traffic,
// same miss mix — for every benchmark, protocol, seed, and worker
// count. This is the property that makes traces a drop-in substrate
// for every experiment above them.

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tsnoop/internal/harness"
	"tsnoop/internal/service"
	"tsnoop/internal/spec"
	"tsnoop/internal/system"
	"tsnoop/internal/trace"
	"tsnoop/internal/workload"
)

const (
	rtWarmup  = 150
	rtMeasure = 250
)

// recordBench captures benchmark name at the given seed with the
// round-trip quotas and writes it to dir, returning the trace: name.
func recordBench(t *testing.T, dir, name string, cpus int, seed uint64) string {
	t.Helper()
	gen, err := workload.ByName(name, cpus)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Capture(gen, cpus, seed, rtWarmup, rtMeasure)
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.tstrace", name, seed))
	if err := tr.WriteFile(path, 0); err != nil {
		t.Fatal(err)
	}
	return "trace:" + path
}

// runGrid streams one network's grid through a fresh memory-only
// service running at most workers simulations at once (0 = one per CPU).
func runGrid(t *testing.T, e harness.Experiment, workers int, network string) *harness.Grid {
	t.Helper()
	sv, err := service.New(service.Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	g, err := e.CollectGrid(network, sv.StreamGrid(context.Background(), e, network))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runTable3 answers Table 3's rows through a fresh memory-only service.
func runTable3(t *testing.T, e harness.Experiment) []harness.Table3Row {
	t.Helper()
	sv, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sv.Table3(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestReplayMatchesLiveRun records each of the five benchmarks and
// asserts the replayed run equals the live-generator run, across all
// three protocols and two seeds.
func TestReplayMatchesLiveRun(t *testing.T) {
	dir := t.TempDir()
	for _, bench := range workload.Names() {
		for _, seed := range []uint64{1, 7} {
			traceName := recordBench(t, dir, bench, 16, seed)
			for _, proto := range []string{system.ProtoTSSnoop, system.ProtoDirClassic, system.ProtoDirOpt} {
				live, err := spec.New(bench, spec.WithProtocol(proto),
					spec.WithWarmup(rtWarmup), spec.WithQuota(rtMeasure), spec.WithSeed(seed)).Run()
				if err != nil {
					t.Fatal(err)
				}
				replay, err := spec.New(traceName, spec.WithProtocol(proto), spec.WithSeed(seed)).Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(live, replay) {
					t.Errorf("%s/%s seed %d: replayed run differs from live run\nlive:\n%s\nreplay:\n%s",
						bench, proto, seed, live.Summary(), replay.Summary())
				}
				if live.Summary() != replay.Summary() {
					t.Errorf("%s/%s seed %d: summaries not byte-identical", bench, proto, seed)
				}
			}
		}
	}
}

// TestTraceGridMatchesLiveGrid runs a one-benchmark Figure 3/4 grid
// from a trace directory and asserts the rendering is byte-identical
// to the live grid at several worker counts. The trace must be
// recorded with the quotas the harness will use (seed 1, Seeds=1).
func TestTraceGridMatchesLiveGrid(t *testing.T) {
	dir := t.TempDir()
	bench := "barnes"
	e := harness.Default()
	e.Seeds = 1 // multi-seed live runs vary the stream; a trace pins it
	e.QuotaScale = 0
	e.WarmupScale = 0
	// QuotaScale/WarmupScale of 0 floor the quotas at 1; record with
	// explicit quotas instead and let the trace supply them.
	gen, err := workload.ByName(bench, e.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Capture(gen, e.Nodes, 1, rtWarmup, rtMeasure)
	path := filepath.Join(dir, bench+".tstrace")
	if err := tr.WriteFile(path, 0); err != nil {
		t.Fatal(err)
	}

	live := e
	live.QuotaScale = float64(rtMeasure) / float64(workload.MeasureQuota(bench))
	live.WarmupScale = float64(rtWarmup) / 2500.0
	live.Benchmarks = []string{bench}
	liveGrid := runGrid(t, live, 0, system.NetButterfly)

	var first string
	for _, workers := range []int{1, 4} {
		te := e
		te.Benchmarks = []string{"trace:" + path}
		grid := runGrid(t, te, workers, system.NetButterfly)
		fig := grid.Figure3() + grid.Figure4()
		if first == "" {
			first = fig
		} else if fig != first {
			t.Fatalf("workers=%d: trace grid rendering differs from workers=1", workers)
		}
		// Cell-by-cell equality against the live grid (the renderings
		// differ only in the benchmark label column).
		for _, proto := range harness.Protocols {
			lr := liveGrid.Cells[bench][proto].Best
			tr := grid.Cells["trace:"+path][proto].Best
			if !reflect.DeepEqual(lr, tr) {
				t.Errorf("workers=%d %s: trace cell differs from live cell\nlive:\n%s\ntrace:\n%s",
					workers, proto, lr.Summary(), tr.Summary())
			}
		}
	}
}

// TestTraceTable3RowMatchesLive asserts a Table 3 row computed from a
// trace-backed experiment is identical to the live row.
func TestTraceTable3RowMatchesLive(t *testing.T) {
	dir := t.TempDir()
	bench := "DSS"
	e := harness.Default()

	gen, err := workload.ByName(bench, e.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Capture(gen, e.Nodes, 1, rtWarmup, rtMeasure)
	path := filepath.Join(dir, bench+".tstrace")
	if err := tr.WriteFile(path, 0); err != nil {
		t.Fatal(err)
	}

	live := e
	live.QuotaScale = float64(rtMeasure) / float64(workload.MeasureQuota(bench))
	live.WarmupScale = float64(rtWarmup) / 2500.0
	live.Benchmarks = []string{bench}
	liveRows := runTable3(t, live)

	te := e
	te.Benchmarks = []string{"trace:" + path}
	traceRows := runTable3(t, te)
	lr, rr := liveRows[0], traceRows[0]
	rr.Benchmark = lr.Benchmark // labels differ by construction
	if !reflect.DeepEqual(lr, rr) {
		t.Fatalf("table 3 row differs:\nlive:  %+v\ntrace: %+v", lr, rr)
	}
}

// TestExplicitQuotaBeatsTraceQuota sets a measured quota equal to the
// scheme default (2500), which value-equality override detection cannot
// distinguish from "not set", and asserts it still overrides the
// trace's recorded quota.
func TestExplicitQuotaBeatsTraceQuota(t *testing.T) {
	dir := t.TempDir()
	gen, err := workload.ByName("barnes", 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Capture(gen, 4, 1, 100, 2600)
	path := filepath.Join(dir, "barnes4.tstrace")
	if err := tr.WriteFile(path, 0); err != nil {
		t.Fatal(err)
	}
	run, err := spec.New("trace:"+path, spec.WithNodes(4),
		spec.WithQuota(2500)).Run() // quota deliberately equal to the scheme default
	if err != nil {
		t.Fatal(err)
	}
	if run.MemOps != 4*2500 {
		t.Fatalf("mem ops = %d, want %d (explicit quota must beat the trace's %d)",
			run.MemOps, 4*2500, tr.Header.MeasurePerCPU)
	}

	// A quota beyond the recording would wrap the stream and silently
	// measure re-walked data; that must be an error, not bogus stats.
	if _, err := spec.New("trace:"+path, spec.WithNodes(4),
		spec.WithQuota(3000)).Run(); // recording holds 100+2600 per cpu
	err == nil || !strings.Contains(err.Error(), "wrapped") {
		t.Fatalf("over-quota replay: err = %v, want wrap error", err)
	}
}

// TestFoldedTraceThroughExperiment folds a 16-CPU barnes trace onto 8
// CPUs and runs it end to end as a harness.Experiment grid on the torus
// (8 nodes is not a square, so the butterfly does not apply).
func TestFoldedTraceThroughExperiment(t *testing.T) {
	dir := t.TempDir()
	gen, err := workload.ByName("barnes", 16)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Capture(gen, 16, 1, 100, 150)
	folded, err := trace.Apply(tr, 0, trace.Fold(8))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "barnes-8.tstrace")
	if err := folded.WriteFile(path, 0); err != nil {
		t.Fatal(err)
	}

	e := harness.Default()
	e.Nodes = 8
	e.Seeds = 2
	e.Benchmarks = []string{"trace:" + path}
	grid := runGrid(t, e, 0, system.NetTorus)
	fig := grid.Figure3()
	if !strings.Contains(fig, "trace:") {
		t.Fatalf("figure missing trace row:\n%s", fig)
	}
	for _, proto := range harness.Protocols {
		best := grid.Cells["trace:"+path][proto].Best
		if best == nil || best.Runtime <= 0 || best.MemOps != int64(8*folded.Header.MeasurePerCPU) {
			t.Fatalf("%s: folded replay ran %d mem ops, want %d", proto, best.MemOps, 8*folded.Header.MeasurePerCPU)
		}
	}
}
