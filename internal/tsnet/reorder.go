package tsnet

import (
	"math"

	"tsnoop/internal/sim"
)

// queued is one address transaction waiting at an endpoint for its
// ordering time.
type queued[P any] struct {
	// dueTick is the endpoint guarantee-time tick at which the
	// transaction's slack reaches zero: GT(arrival) + slack(arrival).
	// Because every enqueued transaction's slack decrements together on
	// each endpoint tick, storing the absolute due tick is equivalent to
	// the paper's "decrement the slack of still-enqueued transactions"
	// and avoids rekeying the whole queue every tick.
	dueTick uint64
	seq     uint64
	payload P
	arrived sim.Time
	src     int32
}

// before orders queue entries by (ordering time, source ID, per-source
// sequence): "All endpoints must, in the same way, fairly order
// transactions that have the same OT. This is easily done by breaking
// ties with a function of source ID numbers." The key is unique per
// entry, so the pop order is a deterministic total order regardless of
// heap shape.
func (a *queued[P]) before(b *queued[P]) bool {
	if a.dueTick != b.dueTick {
		return a.dueTick < b.dueTick
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// reorderQueue is the augmented priority queue of Section 2.2's
// destination operation, recreating snooping's total order at every
// endpoint. It is a hand-rolled 4-ary min-heap of inline queued values:
// no container/heap interface boxing, no per-entry allocation, and one
// backing array reused for the life of the endpoint (vacated slots are
// zeroed so dead payloads are not retained). The endpoint's clock
// caches the head's due tick, so a tick with nothing due never touches
// the heap.
type reorderQueue[P any] struct {
	h []queued[P]
}

// head returns the head's due tick, or MaxUint64 when the queue is empty.
func (q *reorderQueue[P]) head() uint64 {
	if len(q.h) == 0 {
		return math.MaxUint64
	}
	return q.h[0].dueTick
}

func (q *reorderQueue[P]) push(e queued[P]) {
	h := append(q.h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	q.h = h
}

// pop removes the highest-priority transaction, h[0]. The queue must
// not be empty.
func (q *reorderQueue[P]) pop() {
	h := q.h
	n := len(h) - 1
	h[0] = h[n]
	h[n] = queued[P]{}
	h = h[:n]
	q.h = h
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
			if h[j].before(&h[min]) {
				min = j
			}
		}
		if !h[min].before(&h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

func (q *reorderQueue[P]) len() int { return len(q.h) }
