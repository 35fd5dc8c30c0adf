package processor

import (
	"testing"

	"tsnoop/internal/coherence"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/timing"
	"tsnoop/internal/workload"
)

// fakeProto completes every access after a fixed latency, alternating
// hits and misses.
type fakeProto struct {
	k     *sim.Kernel
	lat   sim.Duration
	calls int
}

func (f *fakeProto) Name() string { return "fake" }
func (f *fakeProto) Pending() int { return 0 }
func (f *fakeProto) Access(node int, op coherence.Op, b coherence.Block, done func(coherence.AccessResult)) {
	f.calls++
	hit := f.calls%2 == 0
	c := &completion{done: done, res: coherence.AccessResult{Hit: hit, Latency: f.lat}}
	f.k.AfterCall(f.lat, completeEvent, c, nil, 0)
}

// completion is one fake access awaiting its latency.
type completion struct {
	done func(coherence.AccessResult)
	res  coherence.AccessResult
}

// completeEvent delivers the *completion in a0.
func completeEvent(a0, _ any, _ int64) {
	c := a0.(*completion)
	c.done(c.res)
}

func TestProcessorExecutesQuota(t *testing.T) {
	k := sim.NewKernel()
	run := &stats.Run{}
	proto := &fakeProto{k: k, lat: 100 * sim.Nanosecond}
	gen := workload.Uniform(1024, 0.3, 20, 1)
	finished := -1
	p := New(k, 0, proto, gen, timing.Default(), sim.NewRand(1), run, 50, func(id int) { finished = id })
	p.Start()
	k.Run()
	if !p.Finished() || p.Executed() != 50 {
		t.Fatalf("finished=%v executed=%d", p.Finished(), p.Executed())
	}
	if finished != 0 {
		t.Fatalf("onFinish got %d", finished)
	}
	if proto.calls != 50 {
		t.Fatalf("protocol saw %d accesses", proto.calls)
	}
	if run.MemOps != 50 {
		t.Fatalf("run.MemOps = %d", run.MemOps)
	}
	if run.L2Hits != 25 {
		t.Fatalf("run.L2Hits = %d, want 25", run.L2Hits)
	}
	if run.Instructions == 0 {
		t.Fatal("no instructions accounted")
	}
}

func TestProcessorTimingIncludesThinkAndLatency(t *testing.T) {
	// With think time T instructions and access latency L, the makespan is
	// at least quota * (T_min*instr + L).
	k := sim.NewKernel()
	run := &stats.Run{}
	lat := 50 * sim.Nanosecond
	proto := &fakeProto{k: k, lat: lat}
	gen := workload.Uniform(1024, 0, 40, 1)
	p := New(k, 0, proto, gen, timing.Default(), sim.NewRand(2), run, 20, nil)
	p.Start()
	k.Run()
	min := sim.Time(20) * (1*timing.Default().InstrTime + lat)
	if p.FinishedAt < min {
		t.Fatalf("finished at %v, faster than physically possible %v", p.FinishedAt, min)
	}
	// Sanity upper bound: mean think 40 instr = 10ns each; generous cap.
	max := sim.Time(20) * (200*timing.Default().InstrTime + lat + 100*sim.Nanosecond)
	if p.FinishedAt > max {
		t.Fatalf("finished at %v, beyond plausible bound %v", p.FinishedAt, max)
	}
}

func TestProcessorZeroQuotaFinishesImmediately(t *testing.T) {
	k := sim.NewKernel()
	run := &stats.Run{}
	proto := &fakeProto{k: k, lat: sim.Nanosecond}
	gen := workload.Uniform(16, 0, 10, 1)
	called := false
	p := New(k, 0, proto, gen, timing.Default(), sim.NewRand(3), run, 0, func(int) { called = true })
	p.Start()
	if !p.Finished() || !called {
		t.Fatal("zero-quota processor did not finish synchronously")
	}
}
