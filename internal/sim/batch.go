package sim

import "fmt"

// Batch coalesces a component's fixed-delay work into as few kernel
// events as the dispatch order allows. Each item of work would
// otherwise be its own event; a batch event runs several items, in the
// order they were added, inside one dispatch.
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
type Batch[T any] struct {
	k   *Kernel
	run func(T)
	// call is b.dispatch, taken once: every method value allocates.
	call   EventFn
	groups []batchGroup[T]
	free   []int32
	cur    int32 // the group of the dispatched event
	// open holds, per delay, the event an item of that delay may join.
	open []batchOpen
}

// batchGroup holds the items of one batch event.
type batchGroup[T any] struct {
	seq   uint64 // the event's seq; 0 once the group is free
	next  int    // items[:next] have run
	items []T
}

// batchOpen names the last event a batch scheduled with delay d.
type batchOpen struct {
	d   Duration
	at  Time
	seq uint64
	g   int32
}

// NewBatch returns a batch on k whose items are run by run. run is
// called once per item, with the clock at the item's time.
func NewBatch[T any](k *Kernel, run func(T)) *Batch[T] {
	b := &Batch[T]{k: k, run: run}
	b.call = b.dispatch
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
	o := b.openFor(d)
	if o.at == at && o.seq != 0 && b.groups[o.g].seq == o.seq && (o.seq == k.seq || o.seq == k.laneTail(d)) {
		g := &b.groups[o.g]
		g.items = append(g.items, item)
		return
	}
	gi := b.group()
	b.groups[gi].items = append(b.groups[gi].items, item)
	k.AtCall(at, b.call, nil, nil, int64(gi))
	b.groups[gi].seq = k.seq
	*o = batchOpen{d: d, at: at, seq: k.seq, g: gi}
}

// openFor returns the open-event record for delay d, adding one the
// first time d is used.
func (b *Batch[T]) openFor(d Duration) *batchOpen {
	for i := range b.open {
		if b.open[i].d == d {
			return &b.open[i]
		}
	}
	b.open = append(b.open, batchOpen{d: d})
	return &b.open[len(b.open)-1]
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

// dispatch is the batch's kernel event: i0 is the item group. It hands
// the group to the kernel, whose run loop runs the items (see runItem).
func (b *Batch[T]) dispatch(_, _ any, i0 int64) {
	b.cur = int32(i0)
	b.k.cur = b
}

// runItem runs the next item of the dispatched group and reports whether
// any remain; the kernel checks RunWhile's condition between items. A
// finished group goes back to the free list.
func (b *Batch[T]) runItem() bool {
	g := &b.groups[b.cur]
	item := g.items[g.next]
	g.next++
	b.run(item)
	if g = &b.groups[b.cur]; g.next < len(g.items) {
		return true
	}
	clear(g.items)
	*g = batchGroup[T]{items: g.items[:0]}
	b.free = append(b.free, b.cur)
	return false
}
