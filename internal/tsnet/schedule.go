package tsnet

import (
	"fmt"
	"slices"
	"sync"

	"tsnoop/internal/sim"
	"tsnoop/internal/topology"
)

// schedule is the token schedule of an uncontended network, recorded
// once by Start. An uncontended switch never buffers a transaction, so
// no transaction ever holds a token back: the token flow is a timed
// marked graph, its firing times are max-plus linear, and after a short
// transient they repeat with a fixed period (Baccelli, Cohen, Olsder and
// Quadrat, Synchronization and Linearity, 1992). The schedule stores
// that flow as a table of phases.
//
// A phase is a maximal run of token items that one parent phase added
// with one delay. The kernel runs the items of one instant in the order
// they were added, and the parent added them with nothing else of that
// instant in between, so they run back to back. One hop item per phase,
// added where the phase's first token item would have been, therefore
// runs exactly where that run of token items would have run, and every
// other item keeps its place among them: arrivals read the same
// guarantee times and token counts, and endpoints process at the same
// picosecond in the same order.
type schedule struct {
	phases   []phase // by id; the root phase, Start's, is 0
	ticks    []int32 // endpoints, in the order the phases tick them
	transits []int32 // links, one per token transit
	props    []int32 // switches, one per token propagation
	kids     []kid
	// initial is every switch input's token count before the root
	// phase, indexed like phase.counts.
	initial []int32
}

// span is the range [lo, hi) of one of a schedule's arrays.
type span struct{ lo, hi int32 }

// phase is one entry of the schedule: its endpoint ticks in order, its
// token transits and propagations (which only the probe counts), the
// phases it adds, and every switch input's token count after it,
// indexed by input link (links into endpoints read 0). Phases with
// equal counts share one copy of them.
type phase struct {
	ticks, transits, props, kids span
	counts                       []int32
}

// kid is a phase that a phase adds, with the delay its token items took.
type kid struct {
	d  sim.Duration
	ph int32
}

// runPhase runs phase i: its endpoint ticks in order, processing what
// falls due, then the probe's token counts and the phases it adds.
func (n *Network[P]) runPhase(i int32) {
	s := n.sched
	ph := &s.phases[i]
	n.snap = ph.counts
	n.inPhase = true
	n.advance(s.ticks[ph.ticks.lo:ph.ticks.hi])
	n.inPhase = false
	if p := n.probe; p != nil {
		for _, l := range s.transits[ph.transits.lo:ph.transits.hi] {
			p.LinkToken(int(l))
		}
		now := int64(n.k.Now())
		for _, sw := range s.props[ph.props.lo:ph.props.hi] {
			p.TokenAdvance(int(sw), now)
		}
	}
	for _, c := range s.kids[ph.kids.lo:ph.kids.hi] {
		n.hops.Add(c.d, hop[P]{kind: hopPhase, id: c.ph})
	}
}

// tokensAt returns the number of tokens waiting on switch input link in.
func (n *Network[P]) tokensAt(in topology.LinkID) int32 {
	if n.sched != nil {
		return n.snap[in]
	}
	m := &n.links[in]
	return int32(n.switches[m.toIndex].tokens[m.inPos])
}

// addToken adds a token item. While Start records the schedule, it
// first stamps the item with the phase it joins.
func (n *Network[P]) addToken(d sim.Duration, h hop[P]) {
	if r := n.rec; r != nil {
		h.ph = r.child(d, h.kind, h.id, h.g)
	}
	n.hops.Add(d, h)
}

// schedules holds every schedule recorded so far, by what it depends
// on: the topology's links, which its name determines, their latency
// unit and the tokens per port. A schedule is read-only once recorded,
// so every network of one shape shares it, and only the first one
// built pays for the recording.
var schedules = struct {
	sync.Mutex
	m map[scheduleKey]*schedule
}{m: make(map[scheduleKey]*schedule)}

type scheduleKey struct {
	topo    string
	dswitch sim.Duration
	tokens  int
}

// schedule returns the network's token schedule, recording it on first
// use.
func (n *Network[P]) schedule() *schedule {
	key := scheduleKey{n.topo.Name(), n.cfg.Params.Dswitch, n.cfg.TokensPerPort}
	schedules.Lock()
	defer schedules.Unlock()
	s := schedules.m[key]
	if s == nil {
		s = n.record()
		schedules.m[key] = s
	}
	return s
}

// record runs the token code alone on a private kernel, a phase at a
// time, until the network's state at the start of a phase repeats its
// state at the start of an earlier one, and returns the phases run.
// That state is every switch input's token count and the pending
// phases in kernel order, each with its time from now and its token
// items: from equal states the token code runs alike.
func (n *Network[P]) record() *schedule {
	k, hops, probe := n.k, n.hops, n.probe
	r := &recorder{k: sim.NewKernel(), cur: -1, links: len(n.links)}
	for i := range n.links {
		r.k.Lane(n.links[i].lat)
	}
	n.k, n.probe, n.rec = r.k, nil, r
	n.hops = sim.NewBatch(r.k, func(h *hop[P]) {
		if h.ph != r.cur {
			r.keys = n.appendCounts(r.keys)
			if r.enter(h.ph) {
				return
			}
		}
		n.runHop(h)
	})
	n.seed()
	r.insts = append(r.insts, instance{parent: -1})
	r.pending = append(r.pending, 0)
	n.hops.Add(0, hop[P]{kind: hopStart})
	r.k.RunWhile(func() bool { return r.sched == nil })
	if r.sched == nil {
		panic("tsnet: the token schedule ran dry")
	}
	n.k, n.hops, n.probe, n.rec = k, hops, probe, nil
	for i := range n.clocks {
		n.clocks[i].gt = 0
	}
	return r.sched
}

// appendCounts appends every link's token count to dst, 0 for a link
// into an endpoint.
func (n *Network[P]) appendCounts(dst []int32) []int32 {
	lo := len(dst)
	dst = append(dst, make([]int32, len(n.links))...)
	for i := range n.switches {
		s := &n.switches[i]
		for pos, in := range s.in {
			dst[lo+int(in)] = int32(s.tokens[pos])
		}
	}
	return dst
}

// maxPhases bounds a recording. Every network the specs build repeats
// within a few hundred phases.
const maxPhases = 1 << 16

// recorder builds a schedule while the token code runs. Phases run one
// at a time, so each one's ticks, transits, propagations, kids and
// sends are one span of the recorder's arrays.
type recorder struct {
	k     *sim.Kernel
	links int
	cur   int32      // the running phase, or -1
	insts []instance // every phase added, by id
	// started lists the phases run, in order.
	started                []int32
	ticks, transits, props []int32
	kids                   []kid
	sends                  []send
	// pending holds the phases added but not started, in the order
	// they were added; order is the same sorted into kernel order.
	pending, order []int32
	// keys holds each started phase's state key: the token counts,
	// then per pending phase its time from now and token items. pendAt
	// holds each started phase's pending phases, in kernel order.
	keys, pendAt []int32
	sched        *schedule
}

// instance is one phase as the recorder runs it.
type instance struct {
	at                                  sim.Time
	parent                              int32
	ran                                 bool
	ticks, transits, props, kids, sends span
	key, pend                           span
	hash                                uint64
}

// send is a token item a phase added, and the phase it joined.
type send struct {
	ph    int32
	kind  hopKind
	id, g int32
}

// child returns the phase that a token item the running phase adds
// with delay d joins, adding the phase on the first such item.
func (r *recorder) child(d sim.Duration, kind hopKind, id, g int32) int32 {
	ph := int32(-1)
	for _, c := range r.kids[r.insts[r.cur].kids.lo:] {
		if c.d == d {
			ph = c.ph
			break
		}
	}
	if ph < 0 {
		ph = int32(len(r.insts))
		r.insts = append(r.insts, instance{at: r.k.Now() + d, parent: r.cur})
		r.kids = append(r.kids, kid{d: d, ph: ph})
		r.pending = append(r.pending, ph)
	}
	r.sends = append(r.sends, send{ph: ph, kind: kind, id: id, g: g})
	return ph
}

// enter ends the running phase and starts phase x. The token counts
// of its state key were just appended to keys. It reports whether the
// state repeats an earlier phase's; that ends the recording, with x
// not run.
func (r *recorder) enter(x int32) bool {
	if r.cur >= 0 {
		c := &r.insts[r.cur]
		c.ticks.hi, c.transits.hi, c.props.hi = int32(len(r.ticks)), int32(len(r.transits)), int32(len(r.props))
		c.kids.hi, c.sends.hi = int32(len(r.kids)), int32(len(r.sends))
	}
	lo := int32(len(r.keys) - r.links)
	r.sortPending()
	if r.order[0] != x {
		// A phase's items must run back to back, first among what is
		// pending; the replay would misplace them otherwise.
		panic(fmt.Sprintf("tsnet: token phase %d runs before phase %d", x, r.order[0]))
	}
	now := r.k.Now()
	for _, q := range r.order {
		r.keys = append(r.keys, int32(r.insts[q].at-now))
		p := r.insts[q].parent
		if p < 0 {
			r.keys = append(r.keys, -1)
			continue
		}
		for _, s := range r.sends[r.insts[p].sends.lo:r.insts[p].sends.hi] {
			if s.ph == q {
				r.keys = append(r.keys, int32(s.kind), s.id, s.g)
			}
		}
		r.keys = append(r.keys, -2)
	}
	ix := &r.insts[x]
	ix.key = span{lo, int32(len(r.keys))}
	ix.hash = keyHash(r.keys[lo:])
	key := r.keys[lo:]
	for _, y := range r.started {
		iy := &r.insts[y]
		if iy.hash == ix.hash && slices.Equal(r.keys[iy.key.lo:iy.key.hi], key) && r.allRan(iy.pend) {
			r.finish(y, ix.key.lo)
			return true
		}
	}
	if len(r.started) == maxPhases {
		panic(fmt.Sprintf("tsnet: the token schedule did not repeat within %d phases", maxPhases))
	}
	ix.pend = span{int32(len(r.pendAt)), int32(len(r.pendAt) + len(r.order))}
	r.pendAt = append(r.pendAt, r.order...)
	r.pending = slices.DeleteFunc(r.pending, func(q int32) bool { return q == x })
	ix.ran = true
	ix.ticks.lo, ix.transits.lo, ix.props.lo = int32(len(r.ticks)), int32(len(r.transits)), int32(len(r.props))
	ix.kids.lo, ix.sends.lo = int32(len(r.kids)), int32(len(r.sends))
	r.started = append(r.started, x)
	r.cur = x
	return false
}

// sortPending sorts the pending phases into order, the order the kernel
// runs them in: by time, then by when they were added.
func (r *recorder) sortPending() {
	r.order = append(r.order[:0], r.pending...)
	slices.SortStableFunc(r.order, func(a, b int32) int {
		return int(r.insts[a].at - r.insts[b].at)
	})
}

// allRan reports whether every phase in pendAt's span has run.
func (r *recorder) allRan(s span) bool {
	for _, q := range r.pendAt[s.lo:s.hi] {
		if !r.insts[q].ran {
			return false
		}
	}
	return true
}

// finish builds the schedule once the state before the pending phase
// first in order, whose key starts at keys[last], repeats the state
// before phase y. From there on each pending phase does what the phase
// at its place in y's pending list did, so the kids that name it name
// that phase instead. Each run phase's token counts are those of the
// state the next one started in.
func (r *recorder) finish(y, last int32) {
	again := r.pendAt[r.insts[y].pend.lo:r.insts[y].pend.hi]
	for i := range r.kids {
		if c := &r.kids[i]; !r.insts[c.ph].ran {
			c.ph = again[slices.Index(r.order, c.ph)]
		}
	}
	s := &schedule{
		phases:   make([]phase, len(r.insts)),
		ticks:    slices.Clip(r.ticks),
		transits: slices.Clip(r.transits),
		props:    slices.Clip(r.props),
		kids:     slices.Clip(r.kids),
	}
	// The counts before each phase start its state key: the root's are
	// the initial counts, and each run phase's are those before the next.
	// Phases with equal counts share one copy of them.
	n := int32(r.links)
	before := make([]int32, len(r.started)+1)
	for j, id := range r.started {
		before[j] = r.insts[id].key.lo
	}
	before[len(r.started)] = last
	var firsts []int32 // before's first index of each distinct vector
	which := make([]int, len(before))
	for j, at := range before {
		which[j] = slices.IndexFunc(firsts, func(f int32) bool {
			return slices.Equal(r.keys[before[f]:before[f]+n], r.keys[at:at+n])
		})
		if which[j] < 0 {
			which[j] = len(firsts)
			firsts = append(firsts, int32(j))
		}
	}
	counts := make([]int32, 0, len(firsts)*r.links)
	for _, f := range firsts {
		counts = append(counts, r.keys[before[f]:before[f]+n]...)
	}
	vector := func(j int) []int32 {
		lo := which[j] * r.links
		return counts[lo : lo+r.links : lo+r.links]
	}
	s.initial = vector(0)
	for j, id := range r.started {
		in := &r.insts[id]
		s.phases[id] = phase{ticks: in.ticks, transits: in.transits, props: in.props, kids: in.kids, counts: vector(j + 1)}
	}
	r.sched = s
}

// keyHash is FNV-1a over a key's words.
func keyHash(key []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range key {
		h ^= uint64(uint32(w))
		h *= 1099511628211
	}
	return h
}
