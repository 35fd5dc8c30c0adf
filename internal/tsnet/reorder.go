package tsnet

import (
	"math"

	"tsnoop/internal/sim"
)

// queued is one address transaction waiting at an endpoint for its
// ordering time.
type queued struct {
	// dueTick is the endpoint guarantee-time tick at which the
	// transaction's slack reaches zero: GT(arrival) + slack(arrival).
	// Because every enqueued transaction's slack decrements together on
	// each endpoint tick, storing the absolute due tick is equivalent to
	// the paper's "decrement the slack of still-enqueued transactions"
	// and avoids rekeying the whole queue every tick.
	dueTick uint64
	src     int
	seq     uint64
	payload any
	arrived sim.Time
}

// before orders queue entries by (ordering time, source ID, per-source
// sequence): "All endpoints must, in the same way, fairly order
// transactions that have the same OT. This is easily done by breaking
// ties with a function of source ID numbers." The key is unique per
// entry, so the pop order is a deterministic total order regardless of
// heap shape.
func (a *queued) before(b *queued) bool {
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
// zeroed so dead payloads are not retained). due caches the head's due
// tick, so a tick with nothing due never touches the heap.
type reorderQueue struct {
	h   []queued
	due uint64 // h[0].dueTick, or MaxUint64 when empty
}

func newReorderQueue() reorderQueue { return reorderQueue{due: math.MaxUint64} }

func (q *reorderQueue) push(e queued) {
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
	q.due = h[0].dueTick
}

// pop removes and returns the highest-priority transaction. The queue
// must not be empty.
func (q *reorderQueue) pop() queued {
	h := q.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = queued{}
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
	q.due = math.MaxUint64
	if n > 0 {
		q.due = h[0].dueTick
	}
	return top
}

func (q *reorderQueue) len() int { return len(q.h) }
