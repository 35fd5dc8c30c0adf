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
// hits and misses. A processor has one access outstanding, so one
// completion record serves them all.
type fakeProto struct {
	k     *sim.Kernel
	lat   sim.Duration
	calls int
	done  func(coherence.AccessResult)
	res   coherence.AccessResult
}

func (f *fakeProto) Name() string { return "fake" }
func (f *fakeProto) Pending() int { return 0 }
func (f *fakeProto) Release()     {}
func (f *fakeProto) Access(node int, op coherence.Op, b coherence.Block, done func(coherence.AccessResult)) {
	f.calls++
	f.done, f.res = done, coherence.AccessResult{Hit: f.calls%2 == 0, Latency: f.lat}
	f.k.AfterCall(f.lat, completeEvent, f, nil, 0)
}

// completeEvent completes the access of the *fakeProto in a0.
func completeEvent(a0, _ any, _ int64) {
	f := a0.(*fakeProto)
	f.done(f.res)
}

// newSet builds a one-processor Set for node 0 over proto, drawing from
// the stream seeded with seed.
func newSet(k *sim.Kernel, proto *fakeProto, gen workload.Generator, seed uint64, run *stats.Run, onFinish func(int)) *Set {
	var cp coherence.Protocol = proto
	return NewSet(k, &cp, gen, timing.Default(), run, onFinish, []*sim.Rand{sim.NewRand(seed)})
}

func TestProcessorExecutesQuota(t *testing.T) {
	k := sim.NewKernel()
	run := &stats.Run{}
	proto := &fakeProto{k: k, lat: 100 * sim.Nanosecond}
	gen := workload.Uniform(1024, 0.3, 20, 1)
	finished := -1
	s := newSet(k, proto, gen, 1, run, func(id int) { finished = id })
	s.Start(50)
	k.Run()
	if waiting, executed := s.Progress(); waiting != 0 || executed != 50 {
		t.Fatalf("waiting=%d executed=%d", waiting, executed)
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
	var finishedAt sim.Time
	s := newSet(k, proto, gen, 2, run, func(int) { finishedAt = k.Now() })
	s.Start(20)
	k.Run()
	min := sim.Time(20) * (1*timing.Default().InstrTime + lat)
	if finishedAt < min {
		t.Fatalf("finished at %v, faster than physically possible %v", finishedAt, min)
	}
	// Sanity upper bound: mean think 40 instr = 10ns each; generous cap.
	max := sim.Time(20) * (200*timing.Default().InstrTime + lat + 100*sim.Nanosecond)
	if finishedAt > max {
		t.Fatalf("finished at %v, beyond plausible bound %v", finishedAt, max)
	}
}

func TestProcessorZeroQuotaFinishesImmediately(t *testing.T) {
	k := sim.NewKernel()
	run := &stats.Run{}
	proto := &fakeProto{k: k, lat: sim.Nanosecond}
	gen := workload.Uniform(16, 0, 10, 1)
	called := false
	s := newSet(k, proto, gen, 3, run, func(int) { called = true })
	s.Start(0)
	if _, executed := s.Progress(); executed != 0 || !called {
		t.Fatal("zero-quota processor did not finish synchronously")
	}
}

// TestProcessorCycleAllocs pins the think -> issue -> complete cycle at
// 0 allocs/op once warm: the think period is an item of the processor's
// batch and the completion callback is bound once, at construction.
func TestProcessorCycleAllocs(t *testing.T) {
	k := sim.NewKernel()
	run := &stats.Run{}
	proto := &fakeProto{k: k, lat: 100 * sim.Nanosecond}
	gen := workload.Uniform(1024, 0.3, 20, 1)
	s := newSet(k, proto, gen, 4, run, nil)
	s.Start(1 << 30)
	executed := func() int64 { _, n := s.Progress(); return n }
	cycle := func() {
		want := executed() + 1
		k.RunWhile(func() bool { return executed() < want })
	}
	for range 16 {
		cycle()
	}
	if a := testing.AllocsPerRun(1000, cycle); a != 0 {
		t.Errorf("think/issue/complete cycle allocates %v/op, want 0", a)
	}
	if executed() != 16+1001 || run.MemOps != 16+1001 {
		t.Fatalf("executed %d, issued %d; want 1017 each", executed(), run.MemOps)
	}
}
