package network

import (
	"testing"

	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/timing"
	"tsnoop/internal/topology"
)

// newTestFabric builds a fabric over topo whose deliveries, to every
// endpoint, go to h.
func newTestFabric(t *testing.T, topo *topology.Topology, h Handler[int], perturb func() sim.Duration, ordered ...int) (*sim.Kernel, *Fabric[int], *stats.Traffic) {
	t.Helper()
	k := sim.NewKernel()
	var tr stats.Traffic
	f := New(k, topo, timing.Default(), &tr, h, perturb, ordered...)
	return k, f, &tr
}

// ignore is a handler for tests that send nothing or only count traffic.
func ignore(Message[int]) {}

func TestButterflyUnloadedLatency(t *testing.T) {
	// Table 2: one-way latency on the butterfly is Dovh + 3*Dswitch = 49 ns.
	_, f, _ := newTestFabric(t, topology.MustButterfly(4), ignore, nil)
	if got := f.UnloadedLatency(0, 15); got != 49*sim.Nanosecond {
		t.Fatalf("latency = %v, want 49ns", got)
	}
}

func TestTorusUnloadedLatencies(t *testing.T) {
	// Table 2: torus one-way latency is Dovh + [0,4]*Dswitch.
	_, f, _ := newTestFabric(t, topology.MustTorus(4, 4), ignore, nil)
	if got := f.UnloadedLatency(0, 1); got != 19*sim.Nanosecond {
		t.Fatalf("1-hop latency = %v, want 19ns", got)
	}
	if got := f.UnloadedLatency(0, 10); got != 64*sim.Nanosecond {
		t.Fatalf("4-hop latency = %v, want 64ns", got)
	}
}

func TestSendDeliversWithLatency(t *testing.T) {
	var k *sim.Kernel
	var at sim.Time
	var got Message[int]
	k, f, _ := newTestFabric(t, topology.MustButterfly(4), func(m Message[int]) {
		if m.Dst == 5 {
			at = k.Now()
			got = m
		}
	}, nil)
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
	var k *sim.Kernel
	var at sim.Time
	k, f, tr := newTestFabric(t, topology.MustTorus(4, 4), func(m Message[int]) {
		if m.Dst == 3 {
			at = k.Now()
		}
	}, nil)
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
	k, f, tr := newTestFabric(t, topology.MustButterfly(4), ignore, nil)
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
	var got []int
	k, f, _ := newTestFabric(t, topology.MustTorus(4, 4), func(m Message[int]) {
		if m.Dst == 1 {
			got = append(got, m.Payload)
		}
	}, func() sim.Duration { d := delays[i%len(delays)]; i++; return d }, 2)
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

// Each ordered vnet keeps one stream per (src, dst) pair: a delayed
// message holds back later sends on its own stream only, not those on
// another ordered vnet or between other endpoints. A fabric without
// ordered vnets keeps no stream state.
func TestOrderedStreamsAreIndependent(t *testing.T) {
	delays := []sim.Duration{100 * sim.Nanosecond, 0, 0, 0, 0}
	i := 0
	at := map[int]sim.Time{}
	var k *sim.Kernel
	k, f, _ := newTestFabric(t, topology.MustTorus(4, 4), func(m Message[int]) { at[m.Payload] = k.Now() },
		func() sim.Duration { d := delays[i]; i++; return d }, 1, 3)
	if len(f.lastAt) != 2*16*16 {
		t.Fatalf("lastAt holds %d streams, want 2 vnets x 16 x 16", len(f.lastAt))
	}
	f.Send(1, 0, 1, stats.ClassMisc, timing.CtrlBytes, 0) // delayed 100 ns
	f.Send(3, 0, 1, stats.ClassMisc, timing.CtrlBytes, 1)
	f.Send(1, 1, 0, stats.ClassMisc, timing.CtrlBytes, 2)
	f.Send(1, 0, 2, stats.ClassMisc, timing.CtrlBytes, 3)
	f.Send(1, 0, 1, stats.ClassMisc, timing.CtrlBytes, 4) // behind 0
	k.Run()
	for _, n := range []int{1, 2, 3} {
		if at[n] >= at[0] {
			t.Errorf("message %d arrived at %v, held behind another stream's delayed message (%v)", n, at[n], at[0])
		}
	}
	if at[4] < at[0] {
		t.Errorf("message 4 arrived at %v, before its stream's earlier message (%v)", at[4], at[0])
	}
	_, unordered, _ := newTestFabric(t, topology.MustTorus(4, 4), ignore, nil)
	if unordered.lastAt != nil {
		t.Fatalf("a fabric without ordered vnets made %d streams", len(unordered.lastAt))
	}
}

func TestUnorderedVNetCanReorder(t *testing.T) {
	delays := []sim.Duration{100 * sim.Nanosecond, 0}
	i := 0
	var got []int
	k, f, _ := newTestFabric(t, topology.MustTorus(4, 4), func(m Message[int]) {
		if m.Dst == 1 {
			got = append(got, m.Payload)
		}
	}, func() sim.Duration { d := delays[i%len(delays)]; i++; return d })
	f.Send(0, 0, 1, stats.ClassMisc, timing.CtrlBytes, 0)
	f.Send(0, 0, 1, stats.ClassMisc, timing.CtrlBytes, 1)
	k.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("expected reorder on unordered vnet, got %v", got)
	}
}

func TestPerturbationAddsDelay(t *testing.T) {
	var k *sim.Kernel
	var at sim.Time
	k, f, _ := newTestFabric(t, topology.MustButterfly(4), func(m Message[int]) {
		if m.Dst == 4 {
			at = k.Now()
		}
	}, func() sim.Duration { return 3 * sim.Nanosecond })
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
	got := 0
	k, f, _ := newTestFabric(t, topology.MustTorus(4, 4), func(m Message[int]) { got += m.Payload },
		func() sim.Duration { return rng.Duration(3 * sim.Nanosecond) }, 1)
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
