package sim

// FIFO is a ring-buffer queue for the typed-event delivery pattern used
// throughout the hot paths: when every pending completion shares one
// fixed delay, kernel dispatch order (at, seq) is exactly push order, so
// a plain FIFO replaces a closure per completion. The kernel's
// fixed-delay lanes are FIFOs of events for the same reason.
//
// The backing array is a power of two that doubles only when full, so a
// queue that never drains (a lane with tokens always in flight) stays
// within twice its peak occupancy. Pops zero the vacated slot (dead
// payloads are not retained), so steady-state push/pop allocates
// nothing.
type FIFO[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the oldest element
	n    int // number of queued elements
}

// Push appends v.
func (f *FIFO[T]) Push(v T) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

// grow doubles the backing array, unwrapping the queue to start at 0.
func (f *FIFO[T]) grow() {
	buf := make([]T, max(1, 2*len(f.buf)))
	m := copy(buf, f.buf[f.head:])
	copy(buf[m:], f.buf[:f.head])
	f.buf, f.head = buf, 0
}

// Pop removes and returns the oldest element. Popping an empty queue
// panics: every pop pairs with exactly one earlier push.
func (f *FIFO[T]) Pop() T {
	if f.n == 0 {
		panic("sim: Pop of an empty FIFO")
	}
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

// Peek returns the oldest element in place, or nil when the queue is
// empty. The pointer is valid until the next Push or Pop.
func (f *FIFO[T]) Peek() *T {
	if f.n == 0 {
		return nil
	}
	return &f.buf[f.head]
}

// Len reports the number of queued elements.
func (f *FIFO[T]) Len() int { return f.n }

// Cap reports the backing array's capacity (capacity-stability tests).
func (f *FIFO[T]) Cap() int { return len(f.buf) }
