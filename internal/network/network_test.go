package network

import (
	"testing"

	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/timing"
	"tsnoop/internal/topology"
)

func newTestFabric(t *testing.T, topo *topology.Topology, perturb func() sim.Duration, ordered ...int) (*sim.Kernel, *Fabric[int], *stats.Traffic) {
	t.Helper()
	k := sim.NewKernel()
	var tr stats.Traffic
	f := New[int](k, topo, timing.Default(), &tr, perturb, ordered...)
	return k, f, &tr
}

func TestButterflyUnloadedLatency(t *testing.T) {
	// Table 2: one-way latency on the butterfly is Dovh + 3*Dswitch = 49 ns.
	_, f, _ := newTestFabric(t, topology.MustButterfly(4), nil)
	if got := f.UnloadedLatency(0, 15); got != 49*sim.Nanosecond {
		t.Fatalf("latency = %v, want 49ns", got)
	}
}

func TestTorusUnloadedLatencies(t *testing.T) {
	// Table 2: torus one-way latency is Dovh + [0,4]*Dswitch.
	_, f, _ := newTestFabric(t, topology.MustTorus(4, 4), nil)
	if got := f.UnloadedLatency(0, 1); got != 19*sim.Nanosecond {
		t.Fatalf("1-hop latency = %v, want 19ns", got)
	}
	if got := f.UnloadedLatency(0, 10); got != 64*sim.Nanosecond {
		t.Fatalf("4-hop latency = %v, want 64ns", got)
	}
}

func TestSendDeliversWithLatency(t *testing.T) {
	k, f, _ := newTestFabric(t, topology.MustButterfly(4), nil)
	var at sim.Time
	var got Message[int]
	f.Register(5, func(m Message[int]) { at = k.Now(); got = m })
	for i := 0; i < 16; i++ {
		if i != 5 {
			f.Register(i, func(Message[int]) {})
		}
	}
	f.Send(0, 2, 5, stats.ClassData, timing.DataBytes, 42)
	k.Run()
	if at != 49*sim.Nanosecond {
		t.Fatalf("arrival = %v, want 49ns", at)
	}
	if got.Payload != 42 || got.Src != 2 || got.Dst != 5 {
		t.Fatalf("message = %+v", got)
	}
}

func TestSendLocalIsLoopback(t *testing.T) {
	k, f, tr := newTestFabric(t, topology.MustTorus(4, 4), nil)
	var at sim.Time
	f.Register(3, func(m Message[int]) { at = k.Now() })
	f.Send(0, 3, 3, stats.ClassRequest, timing.CtrlBytes, 0)
	k.Run()
	if at != 4*sim.Nanosecond {
		t.Fatalf("local arrival = %v, want Dovh=4ns", at)
	}
	if tr.LinkBytes(stats.ClassRequest) != 0 {
		t.Fatalf("local message counted link bytes: %d", tr.LinkBytes(stats.ClassRequest))
	}
	if tr.Messages(stats.ClassRequest) != 1 {
		t.Fatalf("local message not counted: %d", tr.Messages(stats.ClassRequest))
	}
}

func TestTrafficChargesLinksTimesBytes(t *testing.T) {
	k, f, tr := newTestFabric(t, topology.MustButterfly(4), nil)
	f.Register(9, func(Message[int]) {})
	f.Send(1, 0, 9, stats.ClassData, timing.DataBytes, 0)
	k.Run()
	if got := tr.LinkBytes(stats.ClassData); got != 3*72 {
		t.Fatalf("data link bytes = %d, want 216", got)
	}
}

func TestOrderedVNetNeverReorders(t *testing.T) {
	// Perturbation that would reorder: big delay first, zero after.
	delays := []sim.Duration{100 * sim.Nanosecond, 0, 0, 0, 0}
	i := 0
	k, f, _ := newTestFabric(t, topology.MustTorus(4, 4),
		func() sim.Duration { d := delays[i%len(delays)]; i++; return d }, 2)
	var got []int
	f.Register(1, func(m Message[int]) { got = append(got, m.Payload) })
	for n := 0; n < 5; n++ {
		f.Send(2, 0, 1, stats.ClassMisc, timing.CtrlBytes, n)
	}
	k.Run()
	for n := range got {
		if got[n] != n {
			t.Fatalf("ordered vnet reordered: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d messages, want 5", len(got))
	}
}

func TestUnorderedVNetCanReorder(t *testing.T) {
	delays := []sim.Duration{100 * sim.Nanosecond, 0}
	i := 0
	k, f, _ := newTestFabric(t, topology.MustTorus(4, 4),
		func() sim.Duration { d := delays[i%len(delays)]; i++; return d })
	var got []int
	f.Register(1, func(m Message[int]) { got = append(got, m.Payload) })
	f.Send(0, 0, 1, stats.ClassMisc, timing.CtrlBytes, 0)
	f.Send(0, 0, 1, stats.ClassMisc, timing.CtrlBytes, 1)
	k.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("expected reorder on unordered vnet, got %v", got)
	}
}

func TestDoubleRegisterPanics(t *testing.T) {
	_, f, _ := newTestFabric(t, topology.MustTorus(4, 4), nil)
	f.Register(0, func(Message[int]) {})
	defer func() {
		if recover() == nil {
			t.Fatal("double register did not panic")
		}
	}()
	f.Register(0, func(Message[int]) {})
}

func TestSendToUnregisteredPanics(t *testing.T) {
	_, f, _ := newTestFabric(t, topology.MustTorus(4, 4), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("send to unregistered endpoint did not panic")
		}
	}()
	f.Send(0, 0, 1, stats.ClassMisc, 8, 0)
}

func TestPerturbationAddsDelay(t *testing.T) {
	k, f, _ := newTestFabric(t, topology.MustButterfly(4), func() sim.Duration { return 3 * sim.Nanosecond })
	var at sim.Time
	f.Register(4, func(Message[int]) { at = k.Now() })
	f.Send(0, 0, 4, stats.ClassData, 72, 0)
	k.Run()
	if at != 52*sim.Nanosecond {
		t.Fatalf("arrival = %v, want 52ns", at)
	}
}

// A warm send and delivery allocates nothing, with perturbation giving
// every message its own delay and an ordered vnet in use: messages
// travel by value, and the delivery batch keeps one open record for all
// the delays without a lane.
func TestSendDeliverAllocs(t *testing.T) {
	rng := sim.NewRand(5)
	k, f, _ := newTestFabric(t, topology.MustTorus(4, 4), func() sim.Duration { return rng.Duration(3 * sim.Nanosecond) }, 1)
	got := 0
	for i := range 16 {
		f.Register(i, func(m Message[int]) { got += m.Payload })
	}
	step := func() {
		for vnet := range 2 {
			for dst := range 16 {
				f.Send(vnet, 0, dst, stats.ClassMisc, timing.CtrlBytes, 1)
				f.Send(vnet, dst, 0, stats.ClassMisc, timing.CtrlBytes, 1)
			}
		}
		k.Run()
	}
	for range 4 {
		step()
	}
	if a := testing.AllocsPerRun(100, step); a != 0 {
		t.Errorf("warm send+deliver allocates %v/op, want 0", a)
	}
	if want := 105 * 64; got != want {
		t.Fatalf("delivered %d messages, want %d", got, want)
	}
}
