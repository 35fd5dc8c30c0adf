package sim

import (
	"testing"
	"testing/quick"
)

// The kernel tests schedule package-level EventFns through AtCall and
// AfterCall: each call is a one-item batch group that nothing joins, so
// these tests see one event per call.

// appendInt appends i0 to the *[]int in a0.
func appendInt(a0, _ any, i0 int64) {
	p := a0.(*[]int)
	*p = append(*p, int(i0))
}

// appendNow appends the kernel a1's current time to the *[]Time in a0
// and, when i0 > 0, schedules itself again i0 picoseconds later.
func appendNow(a0, a1 any, i0 int64) {
	p, k := a0.(*[]Time), a1.(*Kernel)
	*p = append(*p, k.Now())
	if i0 > 0 {
		k.AfterCall(Duration(i0), appendNow, a0, a1, 0)
	}
}

func noop(any, any, int64) {}

func TestKernelZeroValueUsable(t *testing.T) {
	var k Kernel
	if k.Now() != 0 {
		t.Fatalf("zero kernel Now = %v, want 0", k.Now())
	}
	ran := 0
	k.AfterCall(5*Nanosecond, countEvent, &ran, nil, 1)
	k.Run()
	if ran != 1 {
		t.Fatal("event did not run")
	}
	if k.Now() != 5*Nanosecond {
		t.Fatalf("Now = %v, want 5ns", k.Now())
	}
}

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.AtCall(30, appendInt, &order, nil, 3)
	k.AtCall(10, appendInt, &order, nil, 1)
	k.AtCall(20, appendInt, &order, nil, 2)
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestKernelFIFOAtSameTime(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		k.AtCall(100, appendInt, &order, nil, int64(i))
	}
	k.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var hits []Time
	k.AtCall(10, appendNow, &hits, k, 5)
	k.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("hits = %v, want [10 15]", hits)
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := Time(10); i <= 100; i += 10 {
		k.AtCall(i, countEvent, &count, nil, 1)
	}
	k.RunUntil(50)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if k.Now() != 50 {
		t.Fatalf("Now = %v, want 50", k.Now())
	}
	if k.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", k.Pending())
	}
	k.Run()
	if count != 10 {
		t.Fatalf("count after Run = %d, want 10", count)
	}
}

func TestKernelRunWhile(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := Time(1); i <= 100; i++ {
		k.AtCall(i, countEvent, &count, nil, 1)
	}
	k.RunWhile(func() bool { return count < 7 })
	if count != 7 {
		t.Fatalf("count = %d, want 7", count)
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	k := NewKernel()
	k.AtCall(100, noop, nil, nil, 0)
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.AtCall(50, noop, nil, nil, 0)
}

func TestKernelNegativeDelayPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	k.AfterCall(-1, noop, nil, nil, 0)
}

func TestKernelExecutedCount(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 42; i++ {
		k.AtCall(Time(i), noop, nil, nil, 0)
	}
	k.Run()
	if k.Executed() != 42 {
		t.Fatalf("Executed = %d, want 42", k.Executed())
	}
}

// Property: regardless of insertion order, events fire in nondecreasing
// timestamp order, and the clock never goes backward.
func TestKernelMonotonicProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		k := NewKernel()
		var fired []Time
		for _, v := range raw {
			k.AtCall(Time(v), appendNow, &fired, k, 0)
		}
		k.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Lane declarations are idempotent, the few lanes fill in declaration
// order, and delays declared past the limit stay on the heap.
func TestKernelLaneDeclarations(t *testing.T) {
	k := NewKernel()
	for _, d := range []Duration{15, 4, 15, 0, 12, 4, 7, 9} {
		k.Lane(d)
	}
	if k.nlanes != maxLanes {
		t.Fatalf("declared %d lanes, want %d", k.nlanes, maxLanes)
	}
	for i, d := range []Duration{15, 4, 0, 12} {
		if k.lanes[i].d != d {
			t.Fatalf("lane %d has delay %v, want %v", i, k.lanes[i].d, d)
		}
	}
	k.AfterCall(7, noop, nil, nil, 0)
	k.AfterCall(15, noop, nil, nil, 0)
	if len(k.events) != 1 || k.lanes[0].q.Len() != 1 || k.Pending() != 2 {
		t.Fatalf("heap %d, 15ps lane %d, pending %d; want 1, 1, 2",
			len(k.events), k.lanes[0].q.Len(), k.Pending())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative lane delay did not panic")
		}
	}()
	k.Lane(-1)
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{250, "250ps"},
		{49 * Nanosecond, "49.00ns"},
		{123 * Microsecond, "123.00us"},
		{45 * Millisecond, "45.000ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}
