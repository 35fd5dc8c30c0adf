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

// event is a scheduled callback, stored inline in the kernel's heap and
// lanes (no interface boxing, no per-event allocation). With 8-byte
// pointers it is exactly 64 bytes: one cache line per slot.
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
// Pending events wait in one of two places, and Step always dispatches
// the least (at, seq) among them:
//
//   - Fixed-delay lanes (see Lane): one FIFO per declared delay d. An
//     event scheduled exactly d after Now is appended to d's lane in
//     O(1). Now never decreases and seq always increases, so each lane
//     is sorted by (at, seq) for free and its head is its minimum. Link
//     transits, network handoffs and L2 hits — nearly every event of a
//     timestamp-snooping run — share a handful of such delays.
//   - A hand-rolled 4-ary min-heap of inline event values for every
//     other delay. A 4-ary heap halves the tree depth of a binary heap
//     and keeps a sift-down's children adjacent in memory, and holding
//     events by value avoids the per-operation interface boxing that
//     container/heap imposes.
//
// Which place an event waits in never changes the dispatch order, only
// its cost.
//
// A Batch lets one event carry several items of work, each of which
// would otherwise be its own event. An item added with delay d joins a
// pending batch event only if that event is at Now+d and is the last
// event pushed on d's lane (for a delay with no lane, the last event
// the kernel scheduled), so nothing could dispatch between them (see
// Batch.Add): a batch runs its items in exactly the order their own
// events would have had, and Step may run several items. RunWhile's condition is
// checked between a batch's items as it is between events: when it
// turns false, the rest of the batch keeps its place and runs first on
// the next Step, Run, RunUntil or RunWhile, ahead of every event the
// finished items scheduled.
type Kernel struct {
	now    Time
	seq    uint64
	events []event // the heap: events whose delay has no lane
	lanes  [maxLanes]lane
	nlanes int
	// executed counts dispatched events; useful for progress accounting
	// and loop-detection in tests.
	executed uint64
	// probe is the optional telemetry hook (nil = zero overhead beyond
	// one predictable branch per schedule/dispatch). It records dispatch
	// counts, schedule distances, and the high-water mark of pending
	// events — all derived from simulated time, never wall clock.
	probe *obs.Probe
	// cur is the batch whose event was dispatched last while it still
	// has items to run, or nil. Its items precede every pending event.
	cur batchRunner
}

// batchRunner is a Batch whose event the kernel has dispatched.
type batchRunner interface {
	// runItem runs the event's next item and reports whether any remain.
	runItem() bool
}

// maxLanes bounds the fixed-delay lanes: Step compares every lane head,
// so lanes pay off only for the few delays that dominate a run.
const maxLanes = 4

// lane is a FIFO of the events scheduled exactly d after their
// scheduling time.
type lane struct {
	d    Duration
	tail uint64 // seq of the last event pushed: see Batch.Add
	q    FIFO[event]
}

// Lane declares a fixed-delay lane: from now on, events scheduled
// exactly d after Now skip the heap. Components declare the constant
// delays they own when they are built. Declaring a delay twice is a
// no-op, and declarations beyond the kernel's few lanes are ignored:
// those events simply stay on the heap. Negative delays panic.
func (k *Kernel) Lane(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative lane delay %v", d))
	}
	if k.laneIndex(d) < 0 && k.nlanes < maxLanes {
		k.lanes[k.nlanes].d = d
		k.nlanes++
	}
}

// SetProbe attaches (or, with nil, detaches) the run's telemetry
// probe. It is the one place a probe enters a simulation: the networks,
// protocols and processors built on k read it once, at construction, so
// call SetProbe before building them.
func (k *Kernel) SetProbe(p *obs.Probe) { k.probe = p }

// Probe returns the attached telemetry probe, or nil.
func (k *Kernel) Probe() *obs.Probe { return k.probe }

// NewKernel returns a kernel whose clock starts at zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Executed returns the number of events dispatched so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Pending returns the number of scheduled-but-not-yet-dispatched events,
// on the heap and in the lanes, plus a batch event with items left to
// run (one cut short by RunWhile, or the one running now).
func (k *Kernel) Pending() int {
	n := k.queued()
	if k.cur != nil {
		n++
	}
	return n
}

// queued returns the number of events on the heap and in the lanes.
func (k *Kernel) queued() int {
	n := len(k.events)
	for i := 0; i < k.nlanes; i++ {
		n += k.lanes[i].q.Len()
	}
	return n
}

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
	k.schedule(t, k.laneIndex(t-k.now), fn, a0, a1, i0)
}

// schedule queues the event fn(a0, a1, i0) at t, no earlier than Now,
// on lane li, the lane of its delay, or on the heap when li is -1.
func (k *Kernel) schedule(t Time, li int, fn EventFn, a0, a1 any, i0 int64) {
	if p := k.probe; p != nil {
		p.ScheduleDelay(int64(t - k.now))
	}
	k.seq++
	e := event{at: t, seq: k.seq, call: fn, a0: a0, a1: a1, i0: i0}
	if li >= 0 {
		l := &k.lanes[li]
		l.q.Push(e)
		l.tail = k.seq
	} else {
		k.push(e)
	}
	if p := k.probe; p != nil {
		p.HeapDepth(k.queued())
	}
}

// laneIndex returns the index of the lane declared for delay d, or -1.
func (k *Kernel) laneIndex(d Duration) int {
	for i := 0; i < k.nlanes; i++ {
		if k.lanes[i].d == d {
			return i
		}
	}
	return -1
}

// AfterCall schedules the event fn(a0, a1, i0) d picoseconds from now.
// Negative delays panic.
func (k *Kernel) AfterCall(d Duration, fn EventFn, a0, a1 any, i0 int64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.AtCall(k.now+d, fn, a0, a1, i0)
}

// runItem runs the current batch event's next item.
func (k *Kernel) runItem() {
	if !k.cur.runItem() {
		k.cur = nil
	}
}

// finishBatch runs the rest of the current batch event, if any.
func (k *Kernel) finishBatch() {
	for k.cur != nil {
		k.runItem()
	}
}

// next returns the earliest pending event in place and where it waits:
// a lane index, or -1 for the heap. The event is nil when none remain.
func (k *Kernel) next() (*event, int) {
	var min *event
	src := -1
	if len(k.events) > 0 {
		min = &k.events[0]
	}
	for i := 0; i < k.nlanes; i++ {
		if e := k.lanes[i].q.Peek(); e != nil && (min == nil || less(e, min)) {
			min, src = e, i
		}
	}
	return min, src
}

// dispatch removes the earliest event from src (as reported by next),
// advances the clock to its timestamp and runs it.
func (k *Kernel) dispatch(src int) {
	var e event
	if src < 0 {
		e = k.popMin()
	} else {
		e = k.lanes[src].q.Pop()
	}
	k.now = e.at
	k.executed++
	if p := k.probe; p != nil {
		p.Dispatch()
	}
	e.call(e.a0, e.a1, e.i0)
}

// Step dispatches the single earliest event, advancing the clock to its
// timestamp; a batch event runs all its items. It reports false when no
// events remain.
func (k *Kernel) Step() bool {
	if k.cur != nil {
		k.finishBatch()
		return true
	}
	e, src := k.next()
	if e == nil {
		return false
	}
	k.dispatch(src)
	k.finishBatch()
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
	if k.now <= t {
		k.finishBatch()
	}
	for {
		e, src := k.next()
		if e == nil || e.at > t {
			break
		}
		k.dispatch(src)
		k.finishBatch()
	}
	if t > k.now {
		k.now = t
	}
}

// RunWhile dispatches events while cond() holds and events remain. It is
// the main loop used by the harness ("run until every processor has
// finished its quota"). It checks cond between a batch event's items
// too, so no item runs after cond turns false.
func (k *Kernel) RunWhile(cond func() bool) {
	for cond() {
		if k.cur == nil {
			e, src := k.next()
			if e == nil {
				return
			}
			k.dispatch(src)
		}
		if k.cur != nil {
			k.runItem()
		}
	}
}
