package sim

import (
	"fmt"
	"slices"
	"testing"
)

// refKernel is the dispatch contract written as plainly as possible: one
// slice of pending events sorted by (at, seq), one event per item, no
// lanes and no batches. It shares no code with Kernel.
type refKernel struct {
	now    Time
	seq    uint64
	q      []refEvent
	plains int // pending plain events
	log    []exEntry
	ids    int32
}

type refEvent struct {
	at    Time
	seq   uint64
	id    int32
	child uint8
	plain bool
}

func (r *refKernel) schedule(w exWork) {
	r.ids++
	r.seq++
	e := refEvent{at: r.now + exDelays[w.delay], seq: r.seq, id: r.ids, child: w.child, plain: w.kind == exPlain}
	i := len(r.q)
	for i > 0 && (r.q[i-1].at > e.at || r.q[i-1].at == e.at && r.q[i-1].seq > e.seq) {
		i--
	}
	r.q = slices.Insert(r.q, i, e)
	if e.plain {
		r.plains++
	}
}

// step runs the earliest event and reports whether there was one.
func (r *refKernel) step() bool {
	if len(r.q) == 0 {
		return false
	}
	e := r.q[0]
	r.q = slices.Delete(r.q, 0, 1)
	if e.plain {
		r.plains--
	}
	r.now = e.at
	r.log = append(r.log, exEntry{r.now, e.id})
	if e.child != exNone {
		r.schedule(exLeaves[e.child])
	}
	return true
}

func (r *refKernel) runUntil(t Time) {
	for len(r.q) > 0 && r.q[0].at <= t {
		r.step()
	}
	r.now = max(r.now, t)
}

func (r *refKernel) runWhile(cond func() bool) {
	for cond() && r.step() {
	}
}

func (r *refKernel) runWhileBefore(t Time, cond func() bool) {
	for cond() && len(r.q) > 0 && r.q[0].at < t {
		r.step()
	}
}

// exEntry is one line of a dispatch log: an item or plain event and the
// time it ran.
type exEntry struct {
	at Time
	id int32
}

// exDelays are the program delays: zero, two lane delays and one heap
// delay. Zero has a lane in half of the runs.
var exDelays = [4]Duration{0, 10, 4, 7}

// exPlain is the kind of a plain event; kinds 0 and 1 are items of the
// batch with that index.
const exPlain = 2

// exNone marks work that schedules no child.
const exNone = 0xff

// exWork is one piece of scheduled work: its kind, an index into
// exDelays, and the child it schedules when it runs (an index into
// exLeaves, or exNone).
type exWork struct {
	kind, delay, child uint8
}

// exLeaves are the children work may schedule: an item of either batch,
// at any delay, that schedules nothing.
var exLeaves = func() (ws []exWork) {
	for kind := range uint8(2) {
		for d := range uint8(len(exDelays)) {
			ws = append(ws, exWork{kind, d, exNone})
		}
	}
	return ws
}()

// exOp is one step of a program: schedule work at the current time, cut
// the run with RunUntil(Now+until), or run until stop more items or
// plain events have run, with or without the limit Now+until.
type exOp struct {
	work  exWork
	cut   uint8 // 0: schedule work; 1: RunUntil; 2: RunWhile; 3: RunWhileBefore
	until Duration
	stop  int
}

func (w exWork) String() string {
	s := fmt.Sprintf("b%d+%d", w.kind, exDelays[w.delay])
	if w.kind == exPlain {
		s = fmt.Sprintf("plain+%d", exDelays[w.delay])
	}
	if w.child != exNone {
		s += ">" + exLeaves[w.child].String()
	}
	return s
}

func (op exOp) String() string {
	switch op.cut {
	case 1:
		return fmt.Sprintf("RunUntil(Now+%d)", op.until)
	case 2:
		return fmt.Sprintf("RunWhile(%d more)", op.stop)
	case 3:
		return fmt.Sprintf("RunWhileBefore(Now+%d, %d more)", op.until, op.stop)
	}
	return op.work.String()
}

// exAlphabet is every operation a program step may be.
var exAlphabet = func() (ops []exOp) {
	for kind := range uint8(3) {
		for d := range uint8(len(exDelays)) {
			ops = append(ops, exOp{work: exWork{kind, d, exNone}})
			for c := range exLeaves {
				ops = append(ops, exOp{work: exWork{kind, d, uint8(c)}})
			}
		}
	}
	for _, t := range []Duration{0, 5, 10} {
		ops = append(ops, exOp{cut: 1, until: t})
	}
	for _, n := range []int{1, 2} {
		ops = append(ops, exOp{cut: 2, stop: n})
		for _, t := range []Duration{0, 5} {
			ops = append(ops, exOp{cut: 3, until: t, stop: n})
		}
	}
	return ops
}()

// exSim runs a program on the real kernel: items through two batches,
// plain events through AfterCall.
type exSim struct {
	k   *Kernel
	b   [2]*Batch[exItem]
	log []exEntry
	ids int32
}

type exItem struct {
	id    int32
	child uint8
}

func newExSim(zeroLane bool) *exSim {
	s := &exSim{k: NewKernel()}
	s.k.Lane(exDelays[1])
	s.k.Lane(exDelays[2])
	if zeroLane {
		s.k.Lane(0)
	}
	for i := range s.b {
		s.b[i] = NewBatch(s.k, func(it *exItem) { s.run(it.id, it.child) })
	}
	return s
}

func (s *exSim) schedule(w exWork) {
	s.ids++
	d := exDelays[w.delay]
	if w.kind == exPlain {
		s.k.AfterCall(d, exPlainEvent, s, nil, int64(s.ids)<<8|int64(w.child))
	} else {
		s.b[w.kind].Add(d, exItem{s.ids, w.child})
	}
}

func exPlainEvent(a0, _ any, i0 int64) { a0.(*exSim).run(int32(i0>>8), uint8(i0)) }

func (s *exSim) run(id int32, child uint8) {
	s.log = append(s.log, exEntry{s.k.Now(), id})
	if child != exNone {
		s.schedule(exLeaves[child])
	}
}

// exCheck runs prog on the kernel and on the reference in lockstep and
// describes the first difference, or returns "". After every step and
// after the final Run, the two agree on Now and on the dispatch log,
// the kernel is idle exactly when the reference is, and its Pending
// count lies between the reference's plain events, which never join,
// and all its events.
func exCheck(prog []exOp, zeroLane bool) string {
	s, r := newExSim(zeroLane), &refKernel{}
	for i := 0; i <= len(prog); i++ {
		if i == len(prog) {
			s.k.Run()
			for r.step() {
			}
		} else {
			switch op := prog[i]; op.cut {
			case 0:
				s.schedule(op.work)
				r.schedule(op.work)
			case 1:
				s.k.RunUntil(s.k.Now() + op.until)
				r.runUntil(r.now + op.until)
			case 2:
				stop := len(s.log) + op.stop
				s.k.RunWhile(func() bool { return len(s.log) < stop })
				stop = len(r.log) + op.stop
				r.runWhile(func() bool { return len(r.log) < stop })
			case 3:
				stop := len(s.log) + op.stop
				s.k.RunWhileBefore(s.k.Now()+op.until, func() bool { return len(s.log) < stop })
				stop = len(r.log) + op.stop
				r.runWhileBefore(r.now+op.until, func() bool { return len(r.log) < stop })
			}
		}
		p := s.k.Pending()
		switch {
		case s.k.Now() != r.now:
			return fmt.Sprintf("after step %d: Now %v, reference %v", i, s.k.Now(), r.now)
		case !slices.Equal(s.log, r.log):
			return fmt.Sprintf("after step %d: log %v, reference %v", i, s.log, r.log)
		case (p == 0) != (len(r.q) == 0) || p < r.plains || p > len(r.q):
			return fmt.Sprintf("after step %d: Pending %d, reference %d events, %d plain", i, p, len(r.q), r.plains)
		}
	}
	return ""
}

// Every program of up to exMaxLen steps over exAlphabet — two batches;
// zero, lane and heap delays; items and plain events that add nothing
// or one item; RunUntil cuts; RunWhile stops after one or two items,
// with and without RunWhileBefore's time limit — runs on the kernel
// exactly as on the reference kernel, with and without a lane for delay
// zero. By the small-scope hypothesis, a fault in the batch rule, the
// lanes, RunWhile's stop or RunWhileBefore's limit shows up in some
// small program.
func TestKernelMatchesReferenceExhaustive(t *testing.T) {
	const exMaxLen = 3
	prog := make([]exOp, 0, exMaxLen)
	programs := 0
	var walk func() bool
	walk = func() bool {
		for _, zeroLane := range []bool{false, true} {
			programs++
			if msg := exCheck(prog, zeroLane); msg != "" {
				t.Errorf("program %v (zero lane %v): %s", prog, zeroLane, msg)
				return false
			}
		}
		if len(prog) == exMaxLen {
			return true
		}
		for _, op := range exAlphabet {
			prog = append(prog, op)
			ok := walk()
			prog = prog[:len(prog)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	walk()
	t.Logf("%d runs: every program of up to %d steps over %d operations, with and without a zero-delay lane",
		programs, exMaxLen, len(exAlphabet))
}
