package sim

import (
	"fmt"

	"tsnoop/internal/obs"
)

// EventFn is the event callback: a plain function (no closure) invoked
// with the arguments captured at scheduling time. Every event — link
// deliveries, port service, protocol handoffs — is scheduled this way,
// so the steady state allocates nothing: a package-level EventFn value,
// pointer receivers boxed in `any` (pointer interfaces do not allocate),
// and one scalar slot cover every case.
type EventFn func(a0, a1 any, i0 int64)

// event is a scheduled callback, stored inline in the kernel's heap (no
// interface boxing, no per-event allocation). With 8-byte pointers it is
// exactly 64 bytes: one cache line per heap slot.
type event struct {
	at     Time
	seq    uint64 // insertion order; breaks ties deterministically (FIFO)
	call   EventFn
	a0, a1 any
	i0     int64
}

// Kernel is a deterministic discrete-event scheduler. The zero value is
// ready to use at time zero.
//
// The event queue is a hand-rolled 4-ary min-heap of inline event values
// ordered by (at, seq). A 4-ary heap halves the tree depth of a binary
// heap and keeps a sift-down's children adjacent in memory, and holding
// events by value avoids the per-operation interface boxing that
// container/heap imposes: Push/Pop through heap.Interface move every
// event in and out of an `any`, which heap-allocates any struct larger
// than a word.
type Kernel struct {
	now    Time
	seq    uint64
	events []event
	// executed counts dispatched events; useful for progress accounting
	// and loop-detection in tests.
	executed uint64
	// probe is the optional telemetry hook (nil = zero overhead beyond
	// one predictable branch per schedule/dispatch). It records dispatch
	// counts, schedule distances, and the heap's high-water mark — all
	// derived from simulated time, never wall clock.
	probe *obs.Probe
}

// SetProbe attaches (or, with nil, detaches) the telemetry probe.
func (k *Kernel) SetProbe(p *obs.Probe) { k.probe = p }

// NewKernel returns a kernel whose clock starts at zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Executed returns the number of events dispatched so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Pending returns the number of scheduled-but-not-yet-dispatched events.
func (k *Kernel) Pending() int { return len(k.events) }

// less orders events by (at, seq); seq is unique, so this is a strict
// total order and dispatch is deterministic regardless of heap shape.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts e, sifting up through the 4-ary heap.
func (k *Kernel) push(e event) {
	h := append(k.events, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !less(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	k.events = h
	if p := k.probe; p != nil {
		p.HeapDepth(len(h))
	}
}

// popMin removes and returns the earliest event. The caller must have
// checked that the heap is non-empty. The vacated tail slot is zeroed so
// the heap's backing array does not retain references to dead callbacks
// and payloads.
func (k *Kernel) popMin() event {
	h := k.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	k.events = h
	// Sift down: swap with the smallest of up to four children.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		min := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(&h[j], &h[min]) {
				min = j
			}
		}
		if !less(&h[min], &h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// AtCall schedules the event fn(a0, a1, i0) at absolute time t. Nothing
// here allocates at steady state: fn should be a package-level function,
// a0/a1 pointers (pointer-to-any conversions do not allocate), and i0
// any scalar payload. Scheduling in the past (t less than Now) panics:
// it would silently corrupt causality.
func (k *Kernel) AtCall(t Time, fn EventFn, a0, a1 any, i0 int64) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	if p := k.probe; p != nil {
		p.ScheduleDelay(int64(t - k.now))
	}
	k.seq++
	k.push(event{at: t, seq: k.seq, call: fn, a0: a0, a1: a1, i0: i0})
}

// AfterCall schedules the event fn(a0, a1, i0) d picoseconds from now.
// Negative delays panic.
func (k *Kernel) AfterCall(d Duration, fn EventFn, a0, a1 any, i0 int64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.AtCall(k.now+d, fn, a0, a1, i0)
}

// Step dispatches the single earliest event, advancing the clock to its
// timestamp. It reports false when no events remain.
func (k *Kernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	e := k.popMin()
	k.now = e.at
	k.executed++
	if p := k.probe; p != nil {
		p.Dispatch()
	}
	e.call(e.a0, e.a1, e.i0)
	return true
}

// Run dispatches events until the queue is empty.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil dispatches events with timestamps <= t, then sets the clock to t.
// Events scheduled beyond t remain pending.
func (k *Kernel) RunUntil(t Time) {
	for len(k.events) > 0 && k.events[0].at <= t {
		k.Step()
	}
	if t > k.now {
		k.now = t
	}
}

// RunWhile dispatches events while cond() holds and events remain. It is
// the main loop used by the harness ("run until every processor has
// finished its quota").
func (k *Kernel) RunWhile(cond func() bool) {
	for cond() && k.Step() {
	}
}
