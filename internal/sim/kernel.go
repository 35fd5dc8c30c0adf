package sim

import (
	"fmt"
	"math"

	"tsnoop/internal/obs"
)

// EventFn is the callback of AtCall and AfterCall: a plain function
// invoked with the arguments captured at scheduling time.
type EventFn func(a0, a1 any, i0 int64)

// event is a pending batch group (see Batch): the index of its batch in
// the kernel's table and of the group in the batch. It holds no
// pointer, so the heap and the lanes are never scanned by the garbage
// collector, and with 24 bytes a slot is cheap to copy.
type event struct {
	at    Time
	seq   uint64 // insertion order; breaks ties deterministically (FIFO)
	batch int32
	group int32
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
// Every event is a group of one or more items of a Batch, which lets
// one event carry several items of work, each of which would otherwise
// be its own event. An item added with delay d joins a pending group
// only if that group's event is at Now+d and is the last event pushed
// on d's lane (for a delay with no lane, the last event the kernel
// scheduled), so nothing could dispatch between them (see Batch.Add): a
// batch runs its items in exactly the order their own events would
// have had, and Step may run several items. RunWhile's condition is
// checked between a group's items as it is between events: when it
// turns false, the rest of the group keeps its place and runs first on
// the next Step, Run, RunUntil or RunWhile, ahead of every event the
// finished items scheduled. AtCall and AfterCall, a convenience for
// tests and tools, schedule a one-item group that nothing joins.
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
	probe   *obs.Probe
	batches []batchRunner // every batch built on k, indexed by event.batch
	// cur is the batch whose group curGroup was dispatched last and still
	// has items to run, or nil. Those items precede every pending event.
	cur      batchRunner
	curGroup int32
	calls    *Batch[call] // AtCall's one-item groups, built on first use
}

// batchRunner is a Batch as the kernel sees it.
type batchRunner interface {
	// runItem runs group g's next item and reports whether any remain.
	runItem(g int32) bool
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
// on the heap and in the lanes, plus a group with items left to run
// (one cut short by RunWhile, or the one running now).
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
// checked that the heap is non-empty.
func (k *Kernel) popMin() event {
	h := k.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
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

// AtCall schedules fn(a0, a1, i0) at absolute time t, as a one-item
// group that no later call joins, so Pending and Executed count each
// call. It is a convenience for tests and tools: simulation components
// schedule their work as items of their own Batch. Scheduling in the
// past (t less than Now) panics: it would silently corrupt causality.
func (k *Kernel) AtCall(t Time, fn EventFn, a0, a1 any, i0 int64) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	if k.calls == nil {
		k.calls = NewBatch(k, runCall)
	}
	k.calls.push(t, k.laneIndex(t-k.now), call{fn, a0, a1, i0})
}

// call is one AtCall event.
type call struct {
	fn     EventFn
	a0, a1 any
	i0     int64
}

func runCall(c *call) { c.fn(c.a0, c.a1, c.i0) }

// schedule queues an event for group g of batch b at t, no earlier than
// Now, on lane li, the lane of its delay, or on the heap when li is -1.
func (k *Kernel) schedule(t Time, li int, b, g int32) {
	if p := k.probe; p != nil {
		p.ScheduleDelay(int64(t - k.now))
	}
	k.seq++
	e := event{at: t, seq: k.seq, batch: b, group: g}
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

// AfterCall schedules fn(a0, a1, i0) d picoseconds from now, as AtCall
// does. Negative delays panic.
func (k *Kernel) AfterCall(d Duration, fn EventFn, a0, a1 any, i0 int64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.AtCall(k.now+d, fn, a0, a1, i0)
}

// runItem runs the current group's next item.
func (k *Kernel) runItem() {
	if !k.cur.runItem(k.curGroup) {
		k.cur = nil
	}
}

// finishBatch runs the rest of the current group, if any.
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
// advances the clock to its timestamp and makes its group current.
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
	k.cur, k.curGroup = k.batches[e.batch], e.group
}

// Step dispatches the single earliest event, advancing the clock to its
// timestamp, and runs all its group's items. It reports false when no
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

// RunWhile dispatches events while cond() holds and events remain ("run
// until every processor has finished its quota"). It checks cond between
// a group's items too, so no item runs after cond turns false. It is
// RunWhileBefore with no time limit.
func (k *Kernel) RunWhile(cond func() bool) { k.RunWhileBefore(math.MaxInt64, cond) }

// RunWhileBefore is RunWhile that also stops before dispatching an event
// at or after t, leaving it pending and the clock where it was. A caller
// bounds a run that may never go idle by calling it window by window.
// The limit is checked once per dispatch, not per item: the items left
// in a group dispatched earlier are at Now, which is before t unless Now
// already was at or after t, and then RunWhileBefore runs nothing.
func (k *Kernel) RunWhileBefore(t Time, cond func() bool) {
	if k.now >= t {
		return
	}
	for cond() {
		if k.cur == nil {
			e, src := k.next()
			if e == nil || e.at >= t {
				return
			}
			k.dispatch(src)
		}
		k.runItem()
	}
}
