package tsnet

import (
	"fmt"

	"tsnoop/internal/obs"
	"tsnoop/internal/sim"
	"tsnoop/internal/topology"
)

// bufEntry is one broadcast-branch copy of a transaction held in a
// switch's (logically centralized) transaction buffer, waiting for its
// output port. Entries are stored inline in the buffer slice.
type bufEntry[P any] struct {
	txn[P]
	branch topology.Branch
	// enq is when the copy entered the buffer (contention mode); the
	// probe's buffer_dwell span measures enq to departure.
	enq sim.Time
}

// swState is a network switch: a transaction buffer and the
// token-passing logic that maintains logical time. The switch is
// standard except for that logic, which runs in parallel with normal
// message routing (Section 2.2). Its token counter per input port is the
// network's count for that input link (Network.counts).
//
// Per-output state is held in dense slices indexed by the port's
// position in the switch's Out link list (positions come from the
// Network's precomputed link metadata), so the hot path performs no map
// operations and the buffer reuses one backing array for the life of the
// run.
type swState[P any] struct {
	net *Network[P]
	id  int

	in  []topology.LinkID // the switch's input links (shared with topology)
	out []topology.LinkID // the switch's output links (shared with topology)

	// fans[src] is route(src) grouped by link latency, and waves the
	// outputs grouped the same way: one wave item per group.
	fans  [][]latGroup
	waves []latGroup

	// buffered holds branch copies waiting for an output port (only
	// non-empty in contention mode; uncontended switches are cut-through).
	buffered []bufEntry[P]

	// Per-output-port serialization state (contention mode), indexed by
	// Out position.
	nextFree []sim.Time
	pending  []bool
}

// init builds switch id, taking its latency groups from g and its
// per-port state from the front of ports, which it returns advanced.
func (s *swState[P]) init(n *Network[P], id int, g *grouper, ports switchPorts) switchPorts {
	spec := n.topo.Switches()[id]
	out := len(spec.Out)
	*s = swState[P]{
		net:      n,
		id:       id,
		in:       spec.In,
		out:      spec.Out,
		nextFree: ports.nextFree[:out:out],
		pending:  ports.pending[:out:out],
		fans:     g.fans[id*n.topo.Nodes() : (id+1)*n.topo.Nodes()],
	}
	for src := range s.fans {
		s.fans[src] = g.group(s.route(int32(src)))
	}
	s.waves = g.group(g.outs[id])
	return switchPorts{ports.nextFree[out:], ports.pending[out:]}
}

// switchPorts backs every switch's per-output state, so a network's
// switches cost two allocations however many there are.
type switchPorts struct {
	nextFree []sim.Time
	pending  []bool
}

func newSwitchPorts(topo *topology.Topology) switchPorts {
	out := 0
	for _, sw := range topo.Switches() {
		out += len(sw.Out)
	}
	return switchPorts{make([]sim.Time, out), make([]bool, out)}
}

// route is the branch list a transaction from src takes at this switch:
// nil when the switch is not on src's broadcast tree.
func (s *swState[P]) route(src int32) []topology.Branch {
	return s.net.topo.BroadcastTree(int(src)).Route[s.id]
}

// latGroup is one link latency among a fan-out's branches, with the
// union of those branches' reach.
type latGroup struct {
	lat   sim.Duration
	reach uint64
}

// grouper builds every switch's latency groups into one array sized up
// front, so a network's groups cost a handful of allocations.
type grouper struct {
	links  []linkMeta
	fans   [][]latGroup        // per (switch, source)
	groups []latGroup          // backs every fans and waves entry
	outs   [][]topology.Branch // each switch's outputs, as branches
}

func newGrouper(topo *topology.Topology, links []linkMeta) *grouper {
	g := &grouper{
		links: links,
		fans:  make([][]latGroup, topo.NumSwitches()*topo.Nodes()),
		outs:  make([][]topology.Branch, topo.NumSwitches()),
	}
	outs := make([]topology.Branch, 0, len(links))
	size := 0
	count := func(sim.Duration, uint64) { size++ }
	for id, sw := range topo.Switches() {
		for src := 0; src < topo.Nodes(); src++ {
			g.eachLatency(topo.BroadcastTree(src).Route[id], count)
		}
		for _, out := range sw.Out {
			outs = append(outs, topology.Branch{Link: out, Reach: ^uint64(0)})
		}
		g.outs[id] = outs[len(outs)-len(sw.Out):]
		g.eachLatency(g.outs[id], count)
	}
	g.groups = make([]latGroup, 0, size)
	return g
}

// eachLatency calls fn once per distinct link latency among bs, in
// order of each latency's first branch, with the union of its reach.
func (g *grouper) eachLatency(bs []topology.Branch, fn func(sim.Duration, uint64)) {
next:
	for i, b := range bs {
		lat := g.links[b.Link].lat
		for _, c := range bs[:i] {
			if g.links[c.Link].lat == lat {
				continue next
			}
		}
		reach := uint64(0)
		for _, c := range bs[i:] {
			if g.links[c.Link].lat == lat {
				reach |= c.Reach
			}
		}
		fn(lat, reach)
	}
}

// group returns bs's latency groups.
func (g *grouper) group(bs []topology.Branch) []latGroup {
	start := len(g.groups)
	g.eachLatency(bs, func(lat sim.Duration, reach uint64) {
		g.groups = append(g.groups, latGroup{lat: lat, reach: reach})
	})
	return g.groups[start:len(g.groups):len(g.groups)]
}

// arriveToken handles a token arriving on input link in.
func (s *swState[P]) arriveToken(in topology.LinkID) {
	s.net.counts[in]++
	if s.holdsTokens() {
		s.tryPropagate()
	}
}

// arriveTxn handles a transaction copy arriving on input port in.
//
// A cut-through switch fans the copy out with one wave item per latency
// group that survives multicast pruning (see deliverTxns), not one per
// branch. One event per branch would have taken consecutive seq
// numbers, so no other work of the same time could fall between two
// same-latency branches: delivering them back to back in one item keeps
// every arrival at its picosecond and every same-time tie in its order.
func (s *swState[P]) arriveTxn(in topology.LinkID, t *txn[P]) {
	// Case 1 of the slack recurrence: entering the switch, the
	// transaction moves past the tokens waiting on its input port, making
	// it earlier in logical time; slack increases to hold OT invariant.
	t.slack += s.net.counts[in]

	branches := s.route(t.src)
	if branches == nil {
		panic(fmt.Sprintf("tsnet: switch %d has no route for source %d", s.id, t.src))
	}
	if !s.net.cfg.Contention {
		// Cut-through: zero dwell time in the buffer.
		for g := range s.fans[t.src] {
			if grp := &s.fans[t.src][g]; grp.reach&t.mask != 0 {
				s.net.hops.Add(grp.lat, hop[P]{kind: hopTxnWave, id: int32(s.id), g: int32(g), t: *t})
			}
		}
		return
	}
	for i := range branches {
		b := &branches[i]
		if b.Reach&t.mask == 0 {
			continue // multicast pruning: nothing downstream is a destination
		}
		s.buffered = append(s.buffered, bufEntry[P]{txn: *t, branch: *b, enq: s.net.k.Now()})
		if p := s.net.probe; p != nil {
			p.BufferOcc(len(s.buffered))
		}
		s.kickPort(b.Link)
	}
}

// deliverTxns completes a cut-through fan-out's link transits of latency
// group g: t on every branch of that latency that survives pruning, in
// route order. Each branch's copy is t itself, its slack rewritten in
// place for the branch.
func (s *swState[P]) deliverTxns(g int32, t *txn[P]) {
	lat := s.fans[t.src][g].lat
	slack := t.slack
	branches := s.route(t.src)
	for i := range branches {
		if b := &branches[i]; b.Reach&t.mask != 0 && s.net.links[b.Link].lat == lat {
			t.slack = s.branchSlack(slack, b)
			s.net.arriveTxn(b.Link, t)
		}
	}
}

// branchSlack returns the slack of a copy leaving on branch b, applying
// case 3 of the recurrence: dD, the decrease in maximum remaining
// pipeline depth for this branch relative to the longest branch.
func (s *swState[P]) branchSlack(slack int32, b *topology.Branch) int32 {
	slack += int32(b.DeltaD * s.net.cfg.TokensPerPort)
	if slack < 0 {
		panic(fmt.Sprintf("tsnet: switch %d departing with negative slack %d", s.id, slack))
	}
	return slack
}

// kickPort schedules a service attempt for an output port (contention
// mode). At most one attempt is pending per port.
func (s *swState[P]) kickPort(link topology.LinkID) {
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
	s.net.hops.Add(at-now, hop[P]{kind: hopServe, id: int32(s.id), g: int32(link)})
}

// servePort dequeues the highest-priority waiting copy for link and sends
// it. "The arbitration logic gives precedence to zero-slack transactions,
// to speed token passing" — implemented as lowest-slack-first, stable by
// arrival.
func (s *swState[P]) servePort(link topology.LinkID) {
	if p := s.net.probe; p != nil {
		p.Event(obs.EvPortService)
	}
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
	s.buffered[n] = bufEntry[P]{}
	s.buffered = s.buffered[:n]
	if p := s.net.probe; p != nil {
		p.BufferOcc(len(s.buffered))
		// buffer_dwell: how long this copy waited for its output port.
		// Switch ids overlap node ids, so switch spans use negative
		// pids (-(id+1)); the trace writer labels them "switch N".
		p.Span(obs.SpanBufferDwell, -int32(s.id)-1, obs.NetLane(obs.SpanBufferDwell),
			int32(e.src), e.seq, int64(e.enq), int64(s.net.k.Now()-e.enq))
	}
	s.nextFree[pos] = s.net.k.Now() + s.net.cfg.Params.Dswitch
	e.slack = s.branchSlack(e.slack, &e.branch)
	s.net.sendOnLink(e.branch.Link, &e.txn)
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
func (s *swState[P]) tryPropagate() {
	for s.holdsTokens() {
		// Only a contended switch buffers, so only it can stall.
		if s.net.cfg.Contention && s.zeroSlackBuffered() {
			// A token-wait episode starts when propagation is blocked by
			// a zero-slack buffered transaction (not by a mere token
			// shortage) and ends at the next successful propagation.
			if p := s.net.probe; p != nil {
				p.TokenStall(s.id, int64(s.net.k.Now()))
			}
			return
		}
		counts := s.net.counts
		for _, in := range s.in {
			counts[in]--
		}
		for i := range s.buffered {
			s.buffered[i].slack--
		}
		if p := s.net.probe; p != nil {
			p.TokenAdvance(s.id, int64(s.net.k.Now()))
		}
		if r := s.net.rec; r != nil {
			r.props = append(r.props, int32(s.id))
		}
		// One wave item per distinct output latency: see deliverTokens.
		for g := range s.waves {
			s.net.addToken(s.waves[g].lat, hop[P]{kind: hopTokenWave, id: int32(s.id), g: int32(g)})
		}
	}
}

// holdsTokens reports whether every input port holds a token.
func (s *swState[P]) holdsTokens() bool {
	counts := s.net.counts
	for _, in := range s.in {
		if counts[in] == 0 {
			return false
		}
	}
	return true
}

// zeroSlackBuffered reports whether a buffered transaction has zero
// slack: the S >= 0 invariant prohibits tokens from moving past it, so
// GT stalls until the transaction departs.
func (s *swState[P]) zeroSlackBuffered() bool {
	for i := range s.buffered {
		if s.buffered[i].slack == 0 {
			return true
		}
	}
	return false
}

// deliverTokens completes one propagation's token transits of output
// latency group g: a token on every output of that latency, in Out
// order, as one event per output would have delivered them.
func (s *swState[P]) deliverTokens(g int32) {
	lat := s.waves[g].lat
	for _, out := range s.out {
		if s.net.links[out].lat == lat {
			s.net.arriveToken(out)
		}
	}
}
