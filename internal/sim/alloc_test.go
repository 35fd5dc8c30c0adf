package sim

import (
	"reflect"
	"slices"
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

// TestEventSlotSize pins the heap and lane slot: 24 bytes holding
// exactly (at, seq, batch, group), with no pointer, func or interface
// anywhere in it, so the garbage collector never scans the queues.
func TestEventSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Fatalf("sizeof(event) = %d, want 24", got)
	}
	et := reflect.TypeOf(event{})
	var names []string
	for i := range et.NumField() {
		names = append(names, et.Field(i).Name)
	}
	if want := []string{"at", "seq", "batch", "group"}; !slices.Equal(names, want) {
		t.Fatalf("event fields %v, want %v", names, want)
	}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Func, reflect.Interface,
			reflect.Map, reflect.Chan, reflect.Slice, reflect.String:
			t.Errorf("event holds a %v", typ)
		case reflect.Struct:
			for i := range typ.NumField() {
				walk(typ.Field(i).Type)
			}
		case reflect.Array:
			walk(typ.Elem())
		}
	}
	walk(et)
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

// eqLanes are the lane delays of the equivalence property: two real
// delays, zero, and one that also appears among the irregular ones.
var eqLanes = []Duration{15, 4, 0, 12}

// eqDelays mixes the lane delays with delays that have no lane.
var eqDelays = []Duration{15, 15, 15, 4, 4, 0, 12, 1, 7, 16, 30, 100}

// eqRec is one dispatch as the equivalence property sees it.
type eqRec struct {
	at  Time
	seq uint64
	i0  int64
}

// eqRun is one kernel under the equivalence property plus its dispatch
// log. Nested scheduling decisions are a pure function of the
// dispatched event's seq, so two kernels that agree so far keep making
// the same decisions.
type eqRun struct {
	k      *Kernel
	log    []eqRec
	budget int // nested events still allowed
}

// schedule adds an event delay d from now through AtCall or AfterCall;
// i0 carries the seq the event will get, and nest (0 or 1) in bit 40
// asks the event to schedule children.
func (r *eqRun) schedule(d Duration, viaAfter bool, nest int64) {
	i0 := int64(r.k.seq+1) | nest<<40
	if viaAfter {
		r.k.AfterCall(d, eqEvent, r, nil, i0)
	} else {
		r.k.AtCall(r.k.Now()+d, eqEvent, r, nil, i0)
	}
}

// eqEvent logs its dispatch and, when flagged and budget remains,
// schedules up to two children with delays picked from seq.
func eqEvent(a0, _ any, i0 int64) {
	r := a0.(*eqRun)
	seq := uint64(i0 & (1<<40 - 1))
	r.log = append(r.log, eqRec{at: r.k.Now(), seq: seq, i0: i0})
	if i0>>40 == 0 {
		return
	}
	h := NewRand(seq).Uint64()
	for c := 0; c < int(h%3) && r.budget > 0; c++ {
		r.budget--
		h >>= 8
		r.schedule(eqDelays[h%uint64(len(eqDelays))], h&0x10 != 0, int64(h>>5&1))
	}
}

// Property: a kernel with fixed-delay lanes dispatches exactly the
// (at, seq, i0) sequence of a heap-only kernel, and agrees on Now and
// Pending at every RunUntil cut, for random schedules mixing lane and
// other delays, zero delays, same-time AtCall/AfterCall and nested
// scheduling. The shared sequence is strictly increasing in (at, seq).
func TestKernelLanesMatchHeapProperty(t *testing.T) {
	f := func(seed uint64) bool {
		lanes := &eqRun{k: NewKernel(), budget: 200}
		for _, d := range eqLanes {
			lanes.k.Lane(d)
		}
		heap := &eqRun{k: NewKernel(), budget: 200}
		script := NewRand(seed)
		for op := 0; op < 60; op++ {
			switch script.Intn(4) {
			case 0, 1: // a burst, often several events at one time
				d := eqDelays[script.Intn(len(eqDelays))]
				for j := script.Intn(4); j >= 0; j-- {
					via, nest := script.Bool(0.5), int64(script.Intn(2))
					lanes.schedule(d, via, nest)
					heap.schedule(d, via, nest)
				}
			case 2: // a cut point
				cut := lanes.k.Now() + Duration(script.Intn(40))
				lanes.k.RunUntil(cut)
				heap.k.RunUntil(cut)
			case 3:
				for j := script.Intn(5); j > 0; j-- {
					if lanes.k.Step() != heap.k.Step() {
						return false
					}
				}
			}
			if lanes.k.Now() != heap.k.Now() || lanes.k.Pending() != heap.k.Pending() {
				return false
			}
		}
		lanes.k.Run()
		heap.k.Run()
		if len(lanes.log) != len(heap.log) || lanes.k.Pending() != 0 || heap.k.Pending() != 0 {
			return false
		}
		for i, r := range lanes.log {
			if r != heap.log[i] {
				return false
			}
			if i > 0 {
				p := lanes.log[i-1]
				if r.at < p.at || r.at == p.at && r.seq <= p.seq {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelLaneAllocs pins the lane path at 0 allocs/op, with and
// without a telemetry probe, at a canonical-like depth of pending lane
// events (the lane never drains, as while tokens circulate).
func TestKernelLaneAllocs(t *testing.T) {
	for _, probed := range []bool{false, true} {
		k := NewKernel()
		if probed {
			k.SetProbe(obs.NewProbe())
		}
		k.Lane(15)
		sum := 0
		for i := 0; i < 96; i++ {
			k.AfterCall(15, countEvent, &sum, nil, 1)
		}
		if a := testing.AllocsPerRun(1000, func() {
			k.AfterCall(15, countEvent, &sum, nil, 1)
			k.Step()
		}); a != 0 {
			t.Errorf("probe=%v: lane schedule+dispatch allocates %v/op, want 0", probed, a)
		}
		if k.Pending() != 96 {
			t.Fatalf("probe=%v: Pending = %d, want 96", probed, k.Pending())
		}
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
