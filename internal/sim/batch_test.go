package sim

import (
	"fmt"
	"slices"
	"testing"
)

// batchWorld runs a seeded random schedule of items, either through two
// Batches or with every item as its own kernel event, and logs every
// item and plain event it runs as (phase, Now, id).
type batchWorld struct {
	k       *Kernel
	batched bool
	seed    uint64
	b       [2]*Batch[int]
	nextID  int
	phase   int
	log     []string
}

// Lane delays 10 and 0, heap delays 7 and 25: items and plain events
// draw from all four, and a draw of 25 stretches to one of 64 distinct
// heap delays.
var batchDelays = []Duration{0, 7, 10, 25}

func newBatchWorld(seed uint64, batched bool) *batchWorld {
	w := &batchWorld{k: NewKernel(), batched: batched, seed: seed}
	w.k.Lane(10)
	w.k.Lane(0)
	for i := range w.b {
		w.b[i] = NewBatch(w.k, func(id *int) { w.runItem(*id) })
	}
	return w
}

// add schedules a new item through batch i, or as its own event.
func (w *batchWorld) add(i int, d Duration) {
	w.nextID++
	id := w.nextID*2 + i
	if w.batched {
		w.b[i].Add(d, id)
	} else {
		w.k.AfterCall(d, itemEvent, w, nil, int64(id))
	}
}

func itemEvent(a0, _ any, i0 int64) { a0.(*batchWorld).runItem(int(i0)) }

// plainEvent is an ordinary kernel event between the items: i0 is its id.
func plainEvent(a0, _ any, i0 int64) {
	w := a0.(*batchWorld)
	w.record(-int(i0))
	w.spawn(int(i0))
}

func (w *batchWorld) record(id int) {
	w.log = append(w.log, fmt.Sprint(w.phase, w.k.Now(), id))
}

func (w *batchWorld) runItem(id int) {
	w.record(id)
	w.spawn(id)
}

// spawn makes id's children: items on either batch and plain events,
// with delays drawn per id so both modes draw the same schedule. The
// mean number of children is below one, and a cap ends the schedule.
func (w *batchWorld) spawn(id int) {
	if w.nextID > 2500 {
		return
	}
	r := NewRand(w.seed*1_000_003 + uint64(id+1_000_000))
	for range 3 {
		d := batchDelays[r.Intn(len(batchDelays))]
		if d == 25 {
			d += Duration(r.Intn(64))
		}
		switch x := r.Intn(10); {
		case x < 3:
			w.add(x%2, d)
		case x == 3:
			w.nextID++
			w.k.AfterCall(d, plainEvent, w, nil, int64(w.nextID))
		}
	}
}

// drive runs the schedule through RunUntil cuts and RunWhile stops, and
// reports how many RunWhile calls stopped inside a batch.
func (w *batchWorld) drive() (cuts int) {
	for i := range 40 {
		w.add(i%2, batchDelays[i%len(batchDelays)])
	}
	for w.k.Pending() > 0 && w.phase < 400 {
		w.phase++
		switch w.phase % 3 {
		case 0:
			w.k.RunUntil(w.k.Now() + Duration(w.phase%17))
		default:
			stop := len(w.log) + 1 + w.phase%5
			w.k.RunWhile(func() bool { return len(w.log) < stop })
			if w.k.cur != nil {
				cuts++
			}
			// Work scheduled between two runs goes after the rest of a
			// cut batch.
			w.add(w.phase%2, 0)
			w.nextID++
			w.k.AfterCall(0, plainEvent, w, nil, int64(w.nextID))
		}
	}
	w.k.Run()
	return cuts
}

// A batch runs its items exactly where their own events would have run:
// seeded random schedules of lane, heap and zero delays, items that add
// items (delay 0 into the running batch too), plain events in between,
// RunUntil cuts and RunWhile stops give the same (phase, Now, id) log
// either way, and batching saves events.
func TestBatchMatchesOneEventPerItem(t *testing.T) {
	cuts := 0
	for seed := uint64(1); seed <= 40; seed++ {
		ref, got := newBatchWorld(seed, false), newBatchWorld(seed, true)
		ref.drive()
		cuts += got.drive()
		if i := firstDiff(ref.log, got.log); i >= 0 {
			t.Fatalf("seed %d: logs differ at entry %d of %d/%d:\n one event per item %v\n batched            %v",
				seed, i, len(ref.log), len(got.log), window(ref.log, i), window(got.log, i))
		}
		if got.k.Executed() >= ref.k.Executed() {
			t.Errorf("seed %d: batched run dispatched %d events, one event per item %d", seed, got.k.Executed(), ref.k.Executed())
		}
		// One record per lane and one for every delay without a lane,
		// however many distinct delays the items used.
		for i, b := range got.b {
			if n := openRecords(b); n > got.k.nlanes+1 {
				t.Errorf("seed %d: batch %d keeps %d open records, want at most %d", seed, i, n, got.k.nlanes+1)
			}
		}
	}
	if cuts == 0 {
		t.Fatal("no RunWhile stopped inside a batch: the stop rule went untested")
	}
}

// openRecords counts the records b keeps of events its items may join.
func openRecords[T any](b *Batch[T]) int {
	n := 0
	for _, o := range b.open {
		if o.seq != 0 {
			n++
		}
	}
	return n
}

func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func window(log []string, i int) []string {
	return log[max(i-2, 0):min(i+3, len(log))]
}

// Items added between the runs of a cut batch and its resumption run
// after the rest of the batch, and the kernel counts the cut batch as
// pending.
func TestBatchStopResumesFirst(t *testing.T) {
	k := NewKernel()
	var got []int
	b := NewBatch(k, func(i *int) { got = append(got, *i) })
	for i := 1; i <= 4; i++ {
		b.Add(5, i)
	}
	k.RunWhile(func() bool { return len(got) < 2 })
	if !slices.Equal(got, []int{1, 2}) || k.Pending() != 1 {
		t.Fatalf("after stop: ran %v, pending %d; want [1 2], 1", got, k.Pending())
	}
	b.Add(0, 5)
	k.Run()
	if !slices.Equal(got, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("ran %v, want [1 2 3 4 5]", got)
	}
}

// Scheduling through a warmed batch and dispatching it allocates
// nothing.
func TestBatchAllocs(t *testing.T) {
	k := NewKernel()
	k.Lane(3)
	n := 0
	b := NewBatch(k, func(*int) { n++ })
	step := func() {
		for i := range 4 {
			b.Add(3, i)
		}
		b.Add(11, 0)
		k.Run()
	}
	step()
	if a := testing.AllocsPerRun(1000, step); a != 0 {
		t.Errorf("batch add+dispatch allocates %v/op, want 0", a)
	}
}
