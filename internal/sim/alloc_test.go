package sim

import (
	"testing"
	"testing/quick"
	"unsafe"

	"tsnoop/internal/obs"
)

// countEvent is the package-level EventFn used by the allocation tests:
// events must never force a closure.
func countEvent(a0, a1 any, i0 int64) {
	*(a0.(*int)) += int(i0)
}

// snapshotSum appends the current value of the *int in a0 to the *[]int
// in a1.
func snapshotSum(a0, a1 any, _ int64) {
	p := a1.(*[]int)
	*p = append(*p, *(a0.(*int)))
}

func TestKernelTypedEvents(t *testing.T) {
	k := NewKernel()
	sum := 0
	k.AtCall(30, countEvent, &sum, nil, 3)
	k.AtCall(10, countEvent, &sum, nil, 1)
	k.AfterCall(20, countEvent, &sum, nil, 2)
	order := []int{}
	k.AtCall(10, snapshotSum, &sum, &order, 0)
	k.Run()
	if sum != 6 {
		t.Fatalf("sum = %d, want 6", sum)
	}
	// The snapshot at t=10 was scheduled after the count at t=10, so FIFO
	// tie-breaking runs it second and it observes sum == 1.
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("snapshot observed sum %v, want [1]", order)
	}
}

// TestEventSlotSize pins the heap slot at one 64-byte cache line on
// targets with 8-byte pointers.
func TestEventSlotSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("slot size is pinned for 8-byte pointers")
	}
	if got := unsafe.Sizeof(event{}); got != 64 {
		t.Fatalf("sizeof(event) = %d, want 64", got)
	}
}

// TestKernelAllocs pins the allocation-free steady state: scheduling and
// dispatching an event must not allocate (no interface boxing anywhere
// in the heap).
func TestKernelAllocs(t *testing.T) {
	k := NewKernel()
	sum := 0
	// Warm the heap's backing array.
	for i := 0; i < 64; i++ {
		k.AfterCall(Duration(i), countEvent, &sum, nil, 1)
	}
	k.Run()

	if a := testing.AllocsPerRun(1000, func() {
		k.AfterCall(1, countEvent, &sum, nil, 1)
		k.Step()
	}); a != 0 {
		t.Errorf("event schedule+dispatch allocates %v/op, want 0", a)
	}
}

// TestKernelAllocsWithProbe pins the probes-on budget: the telemetry
// probe's counters and fixed-bucket histograms are pure integer
// arithmetic over preallocated storage, so an instrumented kernel
// still schedules and dispatches without allocating.
func TestKernelAllocsWithProbe(t *testing.T) {
	k := NewKernel()
	k.SetProbe(obs.NewProbe())
	sum := 0
	for i := 0; i < 64; i++ {
		k.AfterCall(Duration(i), countEvent, &sum, nil, 1)
	}
	k.Run()

	if a := testing.AllocsPerRun(1000, func() {
		k.AfterCall(1, countEvent, &sum, nil, 1)
		k.Step()
	}); a != 0 {
		t.Errorf("instrumented typed event schedule+dispatch allocates %v/op, want 0", a)
	}
}

// Property: the hand-rolled 4-ary heap dispatches any interleaving of
// pushes and pops in exact (at, seq) order, including duplicates and
// events scheduled from inside events.
func TestKernelHeapOrderProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		k := NewKernel()
		var fired []Time
		var record EventFn
		record = func(a0, a1 any, i0 int64) {
			fired = append(fired, k.Now())
			if i0 > 0 { // nested scheduling from inside a typed event
				k.AfterCall(Duration(i0), record, nil, nil, 0)
			}
		}
		want := 0
		for i, v := range raw {
			k.AtCall(Time(v), record, nil, nil, int64(i%3))
			want++
			if i%3 != 0 {
				want++
			}
		}
		k.Run()
		if len(fired) != want {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Same-time events scheduled through AtCall and AfterCall, from a clock
// past zero, must interleave strictly FIFO.
func TestKernelMixedFIFO(t *testing.T) {
	k := NewKernel()
	k.RunUntil(20)
	var order []int
	for i := 0; i < 12; i++ {
		if i%2 == 0 {
			k.AtCall(50, appendInt, &order, nil, int64(i))
		} else {
			k.AfterCall(30, appendInt, &order, nil, int64(i))
		}
	}
	k.Run()
	if len(order) != 12 {
		t.Fatalf("dispatched %d events, want 12", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("mixed same-time events not FIFO: %v", order)
		}
	}
}
