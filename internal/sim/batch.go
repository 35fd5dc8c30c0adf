package sim

import "fmt"

// Batch coalesces a component's fixed-delay work into as few kernel
// events as the dispatch order allows. Each item of work would
// otherwise be its own event; a batch event runs a group of items, in
// the order they were added, inside one dispatch. Every kernel event is
// such a group.
//
// The rule that keeps this exact is Add's adjacency test. An item added
// at Now with delay d joins the batch's pending event E only if E is at
// Now+d and E is the last event pushed on d's lane or, for a delay with
// no lane, the last event the kernel scheduled. Every event scheduled at
// Now with delay d lands on d's lane, and every other event at Now+d
// was scheduled earlier, with a smaller seq; an event scheduled later
// at Now+d has a larger seq than the item would have had. So no event
// can dispatch between E's items: they run exactly where their own
// events would have. The joined item gets no seq of its own, which no
// remaining event can observe.
//
// Items may add items, with delay 0 into the running event too. The
// kernel runs a dispatched event's items one by one, checking RunWhile's
// condition between them (see Kernel).
//
// Items are held by value and run in place: the runner gets a pointer
// to the item's own slot, so a large item is never copied out to run.
// The pointer is valid only until the runner returns.
type Batch[T any] struct {
	k      *Kernel
	run    func(*T)
	id     int32 // the batch's index in the kernel's table
	groups []batchGroup[T]
	free   []int32
	// open holds the event an item may join: open[i] for the kernel's
	// lane i, and open[maxLanes] for every delay without a lane. Only
	// the kernel's last-scheduled event can be joined on such a delay,
	// so one record serves them all, however many distinct delays the
	// batch uses.
	open [maxLanes + 1]batchOpen
}

// batchGroup holds the items of one batch event.
type batchGroup[T any] struct {
	seq   uint64 // the event's seq; 0 once the group is free
	next  int    // items[:next] have run
	items []T
}

// batchOpen names the last event a batch scheduled on one lane, or
// without a lane.
type batchOpen struct {
	at  Time
	seq uint64
	g   int32
}

// NewBatch returns a batch on k whose items are run by run. run is
// called once per item, with the clock at the item's time.
func NewBatch[T any](k *Kernel, run func(*T)) *Batch[T] {
	b := &Batch[T]{k: k, run: run, id: int32(len(k.batches))}
	k.batches = append(k.batches, b)
	return b
}

// Add schedules item to run d picoseconds from now, as one more item
// of the batch's pending event when the adjacency rule allows it, or
// else as a new event. Negative delays panic.
func (b *Batch[T]) Add(d Duration, item T) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k := b.k
	at := k.now + d
	li := k.laneIndex(d)
	o, last := &b.open[maxLanes], k.seq
	if li >= 0 {
		o, last = &b.open[li], k.lanes[li].tail
	}
	if o.at == at && o.seq != 0 && b.groups[o.g].seq == o.seq && o.seq == last {
		g := &b.groups[o.g]
		g.items = append(g.items, item)
		return
	}
	gi := b.push(at, li, item)
	*o = batchOpen{at: at, seq: k.seq, g: gi}
}

// push schedules item at t on lane li (-1 for the heap) as the first
// item of a new event, and returns its group.
func (b *Batch[T]) push(t Time, li int, item T) int32 {
	gi := b.group()
	g := &b.groups[gi]
	g.items = append(g.items, item)
	b.k.schedule(t, li, b.id, gi)
	g.seq = b.k.seq
	return gi
}

// group returns a free item group, recycled when possible.
func (b *Batch[T]) group() int32 {
	if n := len(b.free); n > 0 {
		gi := b.free[n-1]
		b.free = b.free[:n-1]
		return gi
	}
	b.groups = append(b.groups, batchGroup[T]{})
	return int32(len(b.groups) - 1)
}

// runItem runs the next item of group gi and reports whether any
// remain; the kernel checks RunWhile's condition between items. A
// finished group goes back to the free list.
func (b *Batch[T]) runItem(gi int32) bool {
	g := &b.groups[gi]
	g.next++
	// An item the runner adds may move g.items; the slot it runs from
	// stays intact until the group is cleared below.
	b.run(&g.items[g.next-1])
	if g = &b.groups[gi]; g.next < len(g.items) {
		return true
	}
	// Drop the items' references. A one-item group, the common case,
	// zeroes its slot inline instead of through clear's runtime call.
	if len(g.items) == 1 {
		var zero T
		g.items[0] = zero
	} else {
		clear(g.items)
	}
	*g = batchGroup[T]{items: g.items[:0]}
	b.free = append(b.free, gi)
	return false
}
