package tsnet

import (
	"fmt"

	"tsnoop/internal/obs"
	"tsnoop/internal/sim"
	"tsnoop/internal/topology"
)

// bufEntry is one broadcast-branch copy of a transaction held in a
// switch's (logically centralized) transaction buffer, waiting for its
// output port. Entries are stored inline in the buffer slice — the
// transaction is copied in so the arriving copy can return to the free
// list immediately.
type bufEntry struct {
	txn
	branch topology.Branch
	// enq is when the copy entered the buffer (contention mode); the
	// probe's buffer_dwell span measures enq to departure.
	enq sim.Time
}

// swState is a network switch: token counters per input port, a
// transaction buffer, and the token-passing logic that maintains logical
// time. The switch is standard except for that logic, which runs in
// parallel with normal message routing (Section 2.2).
//
// All per-port state is held in dense slices indexed by the port's
// position in the switch's In/Out link lists (positions come from the
// Network's precomputed link metadata), so the hot path performs no map
// operations and the buffer reuses one backing array for the life of the
// run.
type swState struct {
	net *Network
	id  int

	in  []topology.LinkID // the switch's input links (shared with topology)
	out []topology.LinkID // the switch's output links (shared with topology)

	tokens []int // token counter per input port, indexed by In position

	// routes[src] is the branch list a transaction from src takes at this
	// switch (nil when the switch is not on src's broadcast tree),
	// flattened from the topology's per-tree route maps at construction.
	routes [][]topology.Branch

	// buffered holds branch copies waiting for an output port (only
	// non-empty in contention mode; uncontended switches are cut-through).
	buffered []bufEntry

	// Per-output-port serialization state (contention mode), indexed by
	// Out position.
	nextFree []sim.Time
	pending  []bool

	// props counts token propagations: the switch's implicit GT.
	props uint64
}

func newSwState(n *Network, id int) *swState {
	spec := n.topo.Switches()[id]
	s := &swState{
		net:      n,
		id:       id,
		in:       spec.In,
		out:      spec.Out,
		tokens:   make([]int, len(spec.In)),
		nextFree: make([]sim.Time, len(spec.Out)),
		pending:  make([]bool, len(spec.Out)),
		routes:   make([][]topology.Branch, n.topo.Nodes()),
	}
	for src := 0; src < n.topo.Nodes(); src++ {
		s.routes[src] = n.topo.BroadcastTree(src).Route[id]
	}
	return s
}

// GT returns the switch's guarantee time (tokens propagated).
func (s *swState) GT() uint64 { return s.props }

// arriveToken handles a token arriving on the input port at position
// inPos of the switch's In list.
func (s *swState) arriveToken(inPos int) {
	s.tokens[inPos]++
	s.tryPropagate()
}

// arriveTxn handles a transaction copy arriving on input port in.
//
// A cut-through switch fans the copy out with one kernel event per
// distinct latency among its surviving branches (see deliverTxnWave),
// not one per branch. The pushes of one dispatch take consecutive seq
// numbers, so no other event of the same time can fall between two
// same-latency branches: delivering them back to back in one event keeps
// every arrival at its picosecond and every same-time tie in its order.
func (s *swState) arriveTxn(in topology.LinkID, t *txn) {
	// Case 1 of the slack recurrence: entering the switch, the
	// transaction moves past the tokens waiting on its input port, making
	// it earlier in logical time; slack increases to hold OT invariant.
	t.slack += s.tokens[s.net.links[in].inPos]

	branches := s.routes[t.src]
	if branches == nil {
		panic(fmt.Sprintf("tsnet: switch %d has no route for source %d", s.id, t.src))
	}
	for i := range branches {
		b := &branches[i]
		if b.Reach&t.mask == 0 {
			continue // multicast pruning: nothing downstream is a destination
		}
		if !s.net.cfg.Contention {
			// Cut-through: zero dwell time in the buffer.
			if lat := s.net.links[b.Link].lat; !s.latBefore(branches[:i], t.mask, lat) {
				s.net.k.AfterCall(lat, deliverTxnWave, s, t, int64(lat))
			}
			continue
		}
		s.buffered = append(s.buffered, bufEntry{txn: *t, branch: *b, enq: s.net.k.Now()})
		if p := s.net.probe; p != nil {
			p.BufferOcc(len(s.buffered))
		}
		s.kickPort(b.Link)
	}
	if s.net.cfg.Contention {
		// The buffer holds copies; a cut-through copy is freed by its
		// last wave instead.
		s.net.freeTxn(t)
	}
}

// latBefore reports whether a branch among bs that survives mask has
// latency lat: its wave event is already scheduled.
func (s *swState) latBefore(bs []topology.Branch, mask uint64, lat sim.Duration) bool {
	for i := range bs {
		if bs[i].Reach&mask != 0 && s.net.links[bs[i].Link].lat == lat {
			return true
		}
	}
	return false
}

// deliverTxnWave is the typed kernel event completing a cut-through
// fan-out's link transits of one latency: a0 is the swState, a1 the
// arriving copy, i0 the latency. It delivers a fresh copy on every
// surviving branch of that latency, in route order, and the event of the
// largest latency, the last to run, frees the arriving copy.
func deliverTxnWave(a0, a1 any, i0 int64) {
	s := a0.(*swState)
	t := a1.(*txn)
	lat := sim.Duration(i0)
	last := true
	branches := s.routes[t.src]
	for i := range branches {
		b := &branches[i]
		if b.Reach&t.mask == 0 {
			continue
		}
		switch l := s.net.links[b.Link].lat; {
		case l == lat:
			s.net.arriveTxn(b.Link, s.branchCopy(t, b))
		case l > lat:
			last = false
		}
	}
	if last {
		s.net.freeTxn(t)
	}
}

// branchCopy returns the copy of t that leaves on branch b, applying case
// 3 of the recurrence: dD, the decrease in maximum remaining pipeline
// depth for this branch relative to the longest branch. The debug state
// is shared read-only by every copy of one injection.
func (s *swState) branchCopy(t *txn, b *topology.Branch) *txn {
	out := s.net.newTxn()
	*out = *t
	out.slack += b.DeltaD * s.net.cfg.TokensPerPort
	if out.slack < 0 {
		panic(fmt.Sprintf("tsnet: switch %d departing with negative slack %d", s.id, out.slack))
	}
	return out
}

// servePortEvent is the typed kernel event backing kickPort: a0 is the
// swState, i0 the output LinkID.
func servePortEvent(a0, a1 any, i0 int64) {
	s := a0.(*swState)
	if p := s.net.probe; p != nil {
		p.Event(obs.EvPortService)
	}
	s.servePort(topology.LinkID(i0))
}

// kickPort schedules a service attempt for an output port (contention
// mode). At most one attempt is pending per port.
func (s *swState) kickPort(link topology.LinkID) {
	pos := s.net.links[link].outPos
	if s.pending[pos] {
		return
	}
	s.pending[pos] = true
	now := s.net.k.Now()
	at := s.nextFree[pos]
	if at < now {
		at = now
	}
	s.net.k.AtCall(at, servePortEvent, s, nil, int64(link))
}

// servePort dequeues the highest-priority waiting copy for link and sends
// it. "The arbitration logic gives precedence to zero-slack transactions,
// to speed token passing" — implemented as lowest-slack-first, stable by
// arrival.
func (s *swState) servePort(link topology.LinkID) {
	pos := s.net.links[link].outPos
	s.pending[pos] = false
	best := -1
	for i := range s.buffered {
		if s.buffered[i].branch.Link != link {
			continue
		}
		if best < 0 || s.buffered[i].slack < s.buffered[best].slack {
			best = i
		}
	}
	if best < 0 {
		return
	}
	e := s.buffered[best]
	// Splice the entry out in place: the backing array is reused, and the
	// vacated tail slot is zeroed so it does not retain payload references.
	n := len(s.buffered) - 1
	copy(s.buffered[best:], s.buffered[best+1:])
	s.buffered[n] = bufEntry{}
	s.buffered = s.buffered[:n]
	if p := s.net.probe; p != nil {
		p.BufferOcc(len(s.buffered))
		// buffer_dwell: how long this copy waited for its output port.
		// Switch ids overlap node ids, so switch spans use negative
		// pids (-(id+1)); the trace writer labels them "switch N".
		p.Span(obs.SpanBufferDwell, -int32(s.id)-1, obs.NetLane(obs.SpanBufferDwell),
			int32(e.src), e.seq, int64(e.enq), int64(s.net.k.Now()-e.enq))
	}
	s.nextFree[pos] = s.net.k.Now() + s.net.cfg.SerTime
	s.net.sendOnLink(e.branch.Link, s.branchCopy(&e.txn, &e.branch))
	// The buffer shrank: a stalled propagation may now be possible.
	s.tryPropagate()
	// More work for this port?
	for i := range s.buffered {
		if s.buffered[i].branch.Link == link {
			s.kickPort(link)
			break
		}
	}
}

// tryPropagate performs as many token propagations as currently allowed.
// A switch may propagate a token whenever it has received a token from
// each input and all buffered transactions have non-zero slack. When it
// propagates, it sends a token on each output, decrements the slack of all
// buffered transactions (case 2 of the recurrence: the token moves past
// them, making them later in logical time), and decrements every input's
// token counter.
func (s *swState) tryPropagate() {
	for {
		ok := true
		for _, c := range s.tokens {
			if c == 0 {
				ok = false
				break
			}
		}
		stalledOnTxn := false
		if ok {
			for i := range s.buffered {
				if s.buffered[i].slack == 0 {
					// The S >= 0 invariant prohibits tokens from moving
					// past zero-slack transactions: stall GT until the
					// transaction departs.
					ok = false
					stalledOnTxn = true
					break
				}
			}
		}
		if !ok {
			// A token-wait episode starts when propagation is blocked by
			// a zero-slack buffered transaction (not by a mere token
			// shortage) and ends at the next successful propagation.
			if stalledOnTxn {
				if p := s.net.probe; p != nil {
					p.TokenStall(s.id, int64(s.net.k.Now()))
				}
			}
			return
		}
		for i := range s.tokens {
			s.tokens[i]--
		}
		for i := range s.buffered {
			s.buffered[i].slack--
		}
		s.props++
		if p := s.net.probe; p != nil {
			p.TokenAdvance(s.id, int64(s.net.k.Now()))
		}
		// One event per distinct output latency: see deliverTokenWave.
		for i, out := range s.out {
			if lat := s.net.links[out].lat; !s.outLatBefore(i, lat) {
				s.net.k.AfterCall(lat, deliverTokenWave, s, nil, int64(lat))
			}
		}
	}
}

// outLatBefore reports whether one of the first n outputs has latency
// lat: its token wave is already scheduled.
func (s *swState) outLatBefore(n int, lat sim.Duration) bool {
	for _, out := range s.out[:n] {
		if s.net.links[out].lat == lat {
			return true
		}
	}
	return false
}

// deliverTokenWave is the typed kernel event completing one propagation's
// token transits of one latency: a0 is the swState, i0 the latency. It
// delivers a token on every output of that latency, in Out order: the
// order in which tryPropagate would have scheduled one event per output,
// on consecutive seq numbers.
func deliverTokenWave(a0, a1 any, i0 int64) {
	s := a0.(*swState)
	lat := sim.Duration(i0)
	for _, out := range s.out {
		if s.net.links[out].lat == lat {
			s.net.arriveToken(out)
		}
	}
}
