// Package tsnet implements the paper's primary contribution: a broadcast
// address network that delivers transactions as fast as the wires allow
// and restores a total order at the endpoints using logical timestamps.
//
// Logical time is maintained implicitly (Section 2.2): a transaction
// carries only a slack field; switches exchange tokens, and a switch's
// guarantee time (GT) is the number of tokens it has propagated. The
// in-flight slack adjustment follows the paper's recurrence
//
//	S_new = S_old + dGT + dD
//
// with three cases: +tokenCount on switch entry (tokens the transaction
// moves past), -1 whenever the switch propagates a token past a buffered
// transaction, and +dD per output branch of an unbalanced broadcast tree.
// The invariant S >= 0 always holds; a zero-slack buffered transaction
// blocks token propagation (the on-time delivery guarantee).
//
// Endpoints insert arriving transactions into a priority queue and process
// them at their ordering time, identically ordered everywhere (ties broken
// by source ID then per-source sequence).
//
// The implementation is allocation-free at steady state: transaction
// copies come from a free list and return to it when consumed, per-port
// switch state lives in dense slices indexed by local port position,
// the endpoint reorder queues are hand-rolled heaps of inline values,
// and all hot-path work is typed kernel events and batch items rather
// than closures. The Verify instrumentation fields live behind a debug
// pointer that uninstrumented runs never touch.
//
// All of the network's fixed-delay work goes through two sim.Batch
// values, so a run of same-instant work costs one kernel dispatch:
//
//   - the hop batch carries every link transit: injections, contended
//     departures, endpoint token echoes, and the fan-out waves. A switch
//     fans out one wave item per distinct link latency, not one per
//     link: a token propagation sends one per output latency, a
//     cut-through switch one per latency among a transaction's surviving
//     branches. Each wave delivers on its links in port or route order,
//     as one event per link would have.
//   - the handoff batch carries every ordered handoff to a controller;
//     one batch serves the whole network, since every handoff takes
//     Dovh.
//
// sim.Batch runs each item exactly where its own event would have run,
// so arrivals, their same-time ties and every ordered processing happen
// as with one event per link and per handoff.
//
// A token hop does O(1) work: a switch counts its empty input ports and
// propagates exactly when that count reaches zero, only a contended
// switch (the only kind that buffers) scans its buffer for zero slack,
// and an endpoint caches its reorder queue's earliest due tick, so a
// tick with nothing due never touches the heap.
package tsnet

import (
	"fmt"

	"tsnoop/internal/obs"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/timing"
	"tsnoop/internal/topology"
)

// Config controls the address network.
type Config struct {
	// Params supplies link and overhead latencies.
	Params timing.Params
	Design
}

// Design holds the address network's design knobs: everything Config
// sets except the machine's timing. The protocol layer takes these and
// runs the network on its own machine's Params.
type Design struct {
	// InitialSlack is the non-negative slack S a source assigns at
	// injection. "Setting S to a small positive value allows GTs to
	// advance during moderate network contention without unduly delaying
	// destination processing."
	InitialSlack int
	// TokensPerPort is the number of tokens each input port starts with
	// (the paper: "one (or more)"). More tokens let GT run further ahead.
	TokensPerPort int
	// Contention, when true, serializes each switch output port: one
	// transaction occupies an output for Params.Dswitch. The paper's
	// evaluation runs uncontended; contention mode exercises the
	// buffering, token passing and stall machinery (Figure 1) and is
	// used by ablations.
	Contention bool
	// Verify enables internal assertions: every transaction must be
	// processed at exactly its ordering time, with non-negative slack
	// throughout. The tsnet and protocol test suites keep it on;
	// experiment runs (system.DefaultConfig) leave it off so production
	// figure runs skip the consensus bookkeeping entirely.
	Verify bool
}

// DefaultConfig returns the configuration used for the paper's
// experiments: the default timing, slack 1, one token per port, no
// contention modelling. Verify is on — this constructor is the entry
// point of the network and protocol test suites; experiment runs
// disable it through system.Config.
func DefaultConfig() Config {
	return Config{
		Params: timing.Default(),
		Design: Design{
			InitialSlack:  1,
			TokensPerPort: 1,
			Verify:        true,
		},
	}
}

// OrderedHandler receives transactions in the global logical order.
type OrderedHandler func(src int, seq uint64, payload any, arrived sim.Time)

// PeekHandler observes a transaction when it arrives at an endpoint,
// before its ordering time. Implements the paper's optimization hooks:
// controllers may begin prefetching (optimization 1), and may return true
// to consume the transaction early (optimization 2) when its effect is
// order-independent (blocks in S, I, or not present). A consumed
// transaction is not enqueued and its OrderedHandler never fires.
//
// slackTicks is the transaction's remaining slack at arrival: its ordering
// time is the endpoint's current GT plus slackTicks. Protocols use it to
// guard early consumption: consuming is only safe when no transaction this
// node could inject from now on can possibly order before this one, i.e.
// when slackTicks is strictly below the minimum OT distance of a fresh
// injection (TokensPerPort*Dmax + InitialSlack).
type PeekHandler func(src int, seq uint64, payload any, slackTicks int) (consumed bool)

// otCell is shared by all broadcast copies of one transaction; under
// Verify it checks that every endpoint computes the identical ordering
// time, which is what guarantees the global total order.
type otCell struct {
	set bool
	val uint64
}

// txnDebug carries the Verify-only instrumentation of a transaction
// copy: the formula ordering time and the cross-endpoint consensus cell
// (shared by every copy of one injection). Uninstrumented runs leave dbg
// nil and never touch any of it.
type txnDebug struct {
	ot   uint64  // formula ordering time GT_src + Dmax + S
	cell *otCell // cross-endpoint ordering-time consensus
}

// txn is an in-flight copy of an address transaction. Broadcast fan-out
// duplicates the copy per branch; each copy carries its own slack. mask is
// the destination set (all ones for a broadcast): switches prune branches
// whose reach does not intersect it, which never changes a surviving
// copy's path, so ordering times remain globally consistent between
// multicasts and broadcasts.
//
// Uninstrumented copies (dbg == nil) are recycled through the Network's
// free list the moment they are consumed — on switch fan-out and on
// endpoint arrival — so a steady-state broadcast allocates nothing.
type txn struct {
	src     int
	seq     uint64
	slack   int
	mask    uint64
	payload any
	sent    sim.Time
	dbg     *txnDebug
}

// linkMeta is the precomputed per-link delivery information consulted on
// every transaction and token hop: the link latency and the destination,
// plus the link's position within its destination switch's input list
// and its source switch's output list (the indexes of the dense per-port
// state slices).
type linkMeta struct {
	lat      sim.Duration
	toSwitch bool
	toIndex  int32
	inPos    int32 // position in To-switch's In list (when toSwitch)
	outPos   int32 // position in From-switch's Out list (when From is a switch)
}

// Network is a timestamp-snooping address network over a topology.
type Network struct {
	k       *sim.Kernel
	topo    *topology.Topology
	cfg     Config
	traffic *stats.Traffic
	run     *stats.Run // optional; ordering-delay and occupancy stats
	// probe is the kernel's, read once by New. When non-nil it records
	// deterministic telemetry: per-link transit counts, buffer and
	// reorder-queue occupancy, and token stall episodes. Every call site
	// is nil-guarded (the txnDebug pattern), so uninstrumented runs pay
	// one branch per site.
	probe *obs.Probe

	switches  []swState
	endpoints []epState
	nextSeq   []uint64
	links     []linkMeta

	// hops carries every link transit, handoffs every ordered handoff.
	hops     *sim.Batch[hop]
	handoffs *sim.Batch[handoff]

	// txnPool recycles uninstrumented transaction copies. Verify copies
	// are never pooled: their debug state may outlive the copy in panic
	// messages.
	txnPool sim.Pool[txn]

	started bool

	// TestHook, when non-nil, observes every ordered processing event:
	// (endpoint, source, seq, endpoint GT at processing, debug OT).
	TestHook func(ep, src int, seq uint64, gt, ot uint64)
}

// New builds the address network, recording into the kernel's probe.
// run may be nil.
func New(k *sim.Kernel, topo *topology.Topology, cfg Config, traffic *stats.Traffic, run *stats.Run) *Network {
	if cfg.InitialSlack < 0 {
		panic("tsnet: negative initial slack")
	}
	if cfg.TokensPerPort < 1 {
		panic("tsnet: TokensPerPort must be >= 1")
	}
	if cfg.Params.Dovh <= 0 {
		// A handoff is its own batch item, never part of a fan-out wave,
		// so no wave can finish an access midway: RunWhile's condition
		// is checked between items.
		panic("tsnet: Params.Dovh must be positive")
	}
	n := &Network{
		k:       k,
		topo:    topo,
		cfg:     cfg,
		traffic: traffic,
		run:     run,
		probe:   k.Probe(),
		nextSeq: make([]uint64, topo.Nodes()),
	}
	n.hops = sim.NewBatch(k, n.runHop)
	n.handoffs = sim.NewBatch(k, n.runHandoff)
	n.links = make([]linkMeta, len(topo.Links()))
	for i, l := range topo.Links() {
		n.links[i] = linkMeta{
			lat:      sim.Duration(l.Cost) * cfg.Params.Dswitch,
			toSwitch: l.To.Kind == topology.KindSwitch,
			toIndex:  int32(l.To.Index),
		}
		// Every token and transaction hop takes its link's latency, and
		// every handoff takes Dovh: the kernel's fixed-delay lanes.
		k.Lane(n.links[i].lat)
	}
	k.Lane(cfg.Params.Dovh)
	for _, sw := range topo.Switches() {
		for pos, id := range sw.In {
			n.links[id].inPos = int32(pos)
		}
		for pos, id := range sw.Out {
			n.links[id].outPos = int32(pos)
		}
	}
	if n.probe != nil {
		// Size the probe's dense per-link/per-switch state once, at
		// build time — the probe's only allocations.
		latPS := make([]int64, len(n.links))
		for i := range n.links {
			latPS[i] = int64(n.links[i].lat)
		}
		n.probe.SizeNetwork(latPS, topo.NumSwitches())
	}
	g := newGrouper(n)
	n.switches = make([]swState, topo.NumSwitches())
	for i := range n.switches {
		n.switches[i].init(n, i, g)
	}
	n.endpoints = make([]epState, topo.Nodes())
	for i := range n.endpoints {
		n.endpoints[i] = epState{net: n, id: i, queue: newReorderQueue()}
	}
	return n
}

// newTxn returns a zeroed transaction copy, recycled when possible.
func (n *Network) newTxn() *txn { return n.txnPool.Get() }

// freeTxn recycles a consumed transaction copy. Verify copies are left
// for the garbage collector: their consensus cell is shared.
func (n *Network) freeTxn(t *txn) {
	if t.dbg != nil {
		return
	}
	n.txnPool.Put(t)
}

// Register installs the ordered handler (required) and the optional peek
// handler for endpoint ep.
func (n *Network) Register(ep int, ordered OrderedHandler, peek PeekHandler) {
	e := &n.endpoints[ep]
	if e.handler != nil {
		panic(fmt.Sprintf("tsnet: endpoint %d registered twice", ep))
	}
	e.handler = ordered
	e.peek = peek
}

// Start seeds the initial tokens ("each node and switch begin operation
// with one (or more) tokens on each input port") and begins logical time.
// Call after all endpoints are registered.
func (n *Network) Start() {
	if n.started {
		panic("tsnet: Start called twice")
	}
	n.started = true
	for i := range n.switches {
		sw := &n.switches[i]
		for j := range sw.tokens {
			sw.tokens[j] = n.cfg.TokensPerPort
		}
		sw.empty = 0
	}
	for i := range n.endpoints {
		e := &n.endpoints[i]
		// Initial tokens mimic a legal snapshot of a running system: a
		// token per input port is either in flight on a real link or
		// standing at the next consumer. For an endpoint whose ejection
		// link has zero cost (torus: on-die), its "in-flight" token is the
		// standing credit already placed at its switch, so the endpoint
		// itself starts with none; giving it one would inject a surplus
		// token into the zero-latency loop and skew logical time.
		if n.topo.Link(n.topo.EndpointIn(e.id)).Cost > 0 {
			e.credits = n.cfg.TokensPerPort
		}
	}
	// Kick the system: endpoints tick on their initial credits; switches
	// attempt their first propagation.
	n.k.AtCall(n.k.Now(), startNetwork, n, nil, 0)
}

// startNetwork is the typed kernel event that kicks the system at start
// time: a0 is the Network. Endpoints tick on their initial credits and
// switches attempt their first propagation.
func startNetwork(a0, a1 any, i0 int64) {
	n := a0.(*Network)
	for i := range n.endpoints {
		e := &n.endpoints[i]
		for e.credits > 0 {
			e.credits--
			e.tick()
		}
	}
	for i := range n.switches {
		n.switches[i].tryPropagate()
	}
}

// GT returns endpoint ep's guarantee time (ticks performed).
func (n *Network) GT(ep int) uint64 { return n.endpoints[ep].gt }

// QueueLen returns the current reorder-queue depth at endpoint ep.
func (n *Network) QueueLen(ep int) int { return n.endpoints[ep].queue.len() }

// Inject broadcasts an address transaction from src. It returns the
// per-source sequence number that, with src, names the transaction in the
// global order. The traffic accountant is charged for the whole broadcast
// tree at injection.
func (n *Network) Inject(src int, payload any) uint64 {
	return n.inject(src, ^uint64(0), payload)
}

// InjectTo multicasts an address transaction from src to the endpoint set
// mask (a bitmask; bit i = endpoint i; machines up to 64 nodes). The
// transaction occupies the same slot in the global logical order a
// broadcast would — only the delivery set shrinks — so multicasts and
// broadcasts interleave in one total order (the property multicast
// snooping depends on). Traffic is charged for the pruned tree only.
func (n *Network) InjectTo(src int, mask uint64, payload any) uint64 {
	if n.topo.Nodes() > 64 {
		panic("tsnet: multicast limited to 64 endpoints")
	}
	if mask == 0 {
		panic("tsnet: empty multicast mask")
	}
	return n.inject(src, mask, payload)
}

func (n *Network) inject(src int, mask uint64, payload any) uint64 {
	if !n.started {
		panic("tsnet: Inject before Start")
	}
	seq := n.nextSeq[src]
	n.nextSeq[src]++
	tree := n.topo.BroadcastTree(src)
	if mask == ^uint64(0) {
		n.traffic.Add(stats.ClassRequest, tree.TotalLinks, timing.CtrlBytes)
	} else {
		n.traffic.Add(stats.ClassRequest, n.topo.MulticastLinks(src, mask), timing.CtrlBytes)
	}

	// With k tokens per input port, guarantee times advance k ticks per
	// link-transit time, so the logical pipeline depth of a link is k
	// ticks: Dmax and every dD are scaled accordingly (k=1 reproduces the
	// paper's presentation exactly).
	k := n.cfg.TokensPerPort
	t := n.newTxn()
	t.src = src
	t.seq = seq
	t.slack = n.cfg.InitialSlack + tree.InjectDeltaD*k
	t.mask = mask
	t.payload = payload
	t.sent = n.k.Now()
	if n.cfg.Verify {
		// OT = GT_source + Dmax + S, in endpoint tick units. (Standing
		// tokens on a zero-cost injection link can shift the realized
		// ordering time by up to k ticks; arrival checks allow exactly
		// that.)
		t.dbg = &txnDebug{
			ot:   n.endpoints[src].gt + uint64(tree.MaxDepth*k) + uint64(n.cfg.InitialSlack),
			cell: &otCell{},
		}
	}
	n.sendOnLink(n.topo.EndpointOut(src), t)
	return seq
}

// hopKind says what a hop item delivers.
type hopKind uint8

const (
	hopTxn       hopKind = iota // a transaction copy over link id
	hopToken                    // an endpoint's token over link id
	hopTokenWave                // switch id's tokens on output group g
	hopTxnWave                  // switch id's copies of t on route group g
)

// hop is one link-transit item of the hop batch. For the waves, id is
// the switch and g the index of its latency group.
type hop struct {
	kind hopKind
	id   int32
	g    int32
	t    *txn
}

// runHop completes a hop item's link transits.
func (n *Network) runHop(h hop) {
	switch h.kind {
	case hopTxn:
		n.arriveTxn(topology.LinkID(h.id), h.t)
	case hopToken:
		n.arriveToken(topology.LinkID(h.id))
	case hopTokenWave:
		n.switches[h.id].deliverTokens(h.g)
	case hopTxnWave:
		n.switches[h.id].deliverTxns(h.g, h.t)
	}
}

// arriveTxn completes a transaction copy's transit of link id.
func (n *Network) arriveTxn(id topology.LinkID, t *txn) {
	if p := n.probe; p != nil {
		p.Event(obs.EvLinkTxn)
		p.LinkTxn(int(id))
	}
	m := &n.links[id]
	if m.toSwitch {
		n.switches[m.toIndex].arriveTxn(id, t)
	} else {
		n.endpoints[m.toIndex].arriveTxn(t)
	}
}

// sendOnLink schedules delivery of a transaction copy across a link: an
// injection, or a contended switch's departure.
func (n *Network) sendOnLink(id topology.LinkID, t *txn) {
	// The hop item owns the copy until its arrival consumes it.
	n.hops.Add(n.links[id].lat, hop{kind: hopTxn, id: int32(id), t: t}) //pool:owned
}

// arriveToken completes a token's transit of link id.
func (n *Network) arriveToken(id topology.LinkID) {
	if p := n.probe; p != nil {
		p.Event(obs.EvLinkToken)
		p.LinkToken(int(id))
	}
	m := &n.links[id]
	if m.toSwitch {
		n.switches[m.toIndex].arriveToken(int(m.inPos))
	} else {
		n.endpoints[m.toIndex].arriveToken()
	}
}

// sendToken schedules delivery of one token across an endpoint's
// output link. Switches send theirs as waves (swState.deliverTokens).
func (n *Network) sendToken(id topology.LinkID) {
	n.hops.Add(n.links[id].lat, hop{kind: hopToken, id: int32(id)})
}

// epState is an endpoint network interface: a one-input, one-output node
// that maintains its GT the same way switches do and sorts arriving
// transactions back into the global order.
type epState struct {
	net     *Network
	id      int
	gt      uint64
	credits int
	queue   reorderQueue
	handler OrderedHandler
	peek    PeekHandler
}

func (e *epState) arriveToken() {
	// Endpoints consume tokens immediately: each token is one GT tick.
	e.tick()
}

// tick advances the endpoint's guarantee time by one: process every
// transaction with ordering time strictly below the new GT, then pass a
// token onward to the adjacent switch.
//
// The strict inequality implements the paper's guarantee-time definition
// ("GT ... is guaranteed to be less than the OTs of any transactions that
// may later be received"): a transaction whose slack reached zero in
// flight arrives after the token that matched its ordering time but —
// because the S >= 0 invariant stops any further token from passing it —
// always before the next one. Draining OT < GT at each tick therefore
// processes every transaction in a batch that is identical at every
// endpoint; draining OT <= GT could split same-OT transactions across
// batches differently at different endpoints and invert the tie-break
// order.
func (e *epState) tick() {
	e.gt++
	for e.queue.due < e.gt {
		e.process(e.queue.pop())
	}
	if e.net.run != nil {
		e.net.run.ReorderOccupancy.Set(e.queue.len())
	}
	if p := e.net.probe; p != nil {
		p.ReorderOcc(e.queue.len())
	}
	e.net.sendToken(e.net.topo.EndpointOut(e.id))
}

func (e *epState) arriveTxn(t *txn) {
	if t.slack < 0 {
		panic(fmt.Sprintf("tsnet: negative slack %d at endpoint %d", t.slack, e.id))
	}
	due := e.gt + uint64(t.slack)
	if e.net.cfg.Verify {
		// Every endpoint must reconstruct the identical ordering time:
		// this is the property that makes the reorder queues agree on a
		// single global order.
		if !t.dbg.cell.set {
			t.dbg.cell.set = true
			t.dbg.cell.val = due
		} else if t.dbg.cell.val != due {
			panic(fmt.Sprintf("tsnet: endpoint %d txn %d/%d ordering time %d disagrees with consensus %d (slack %d, gt %d)",
				e.id, t.src, t.seq, due, t.dbg.cell.val, t.slack, e.gt))
		}
		// And it must match the paper's formula, shifted no later than the
		// standing-token phase of a zero-cost injection link (at most
		// TokensPerPort ticks) and never earlier.
		if due < t.dbg.ot || due > t.dbg.ot+uint64(e.net.cfg.TokensPerPort) {
			panic(fmt.Sprintf("tsnet: endpoint %d txn %d/%d due tick %d outside [OT, OT+%d], OT %d",
				e.id, t.src, t.seq, due, e.net.cfg.TokensPerPort, t.dbg.ot))
		}
	}
	if e.peek != nil {
		if e.peek(t.src, t.seq, t.payload, t.slack) {
			if e.net.run != nil {
				e.net.run.EarlyProcessed++
			}
			e.net.freeTxn(t)
			return
		}
	}
	// Transactions are always enqueued and drained at tick boundaries,
	// even when already due: processing strictly in (OT, source, sequence)
	// key order at every endpoint guarantees the orders agree globally,
	// which immediate on-arrival processing could violate for same-OT
	// transactions arriving in different physical orders.
	e.queue.push(queued{
		dueTick: due,
		src:     t.src,
		seq:     t.seq,
		payload: t.payload,
		arrived: e.net.k.Now(),
	})
	if e.net.run != nil {
		e.net.run.ReorderOccupancy.Set(e.queue.len())
	}
	if p := e.net.probe; p != nil {
		p.ReorderOcc(e.queue.len())
		// One addr_flight span per endpoint delivery: this copy's
		// injection-to-arrival transit, observed at the arriving node.
		p.Span(obs.SpanAddrFlight, int32(e.id), obs.NetLane(obs.SpanAddrFlight), int32(t.src), t.seq,
			int64(t.sent), int64(e.net.k.Now()-t.sent))
	}
	e.net.freeTxn(t)
}

// handoff is one item of the handoff batch: endpoint e hands q to its
// controller.
type handoff struct {
	e *epState
	q queued
}

// runHandoff completes a handoff after the network-exit overhead.
func (n *Network) runHandoff(h handoff) {
	if p := n.probe; p != nil {
		p.Event(obs.EvOrderedHandoff)
	}
	h.e.handler(h.q.src, h.q.seq, h.q.payload, h.q.arrived)
}

func (e *epState) process(q queued) {
	if e.net.run != nil {
		e.net.run.OrderingDelay.Observe(e.net.k.Now() - q.arrived)
	}
	if p := e.net.probe; p != nil {
		// reorder_dwell: physical arrival to in-order processing at
		// this endpoint's reorder queue.
		p.Span(obs.SpanReorderDwell, int32(e.id), obs.NetLane(obs.SpanReorderDwell), int32(q.src), q.seq,
			int64(q.arrived), int64(e.net.k.Now()-q.arrived))
	}
	if e.net.TestHook != nil {
		e.net.TestHook(e.id, q.src, q.seq, e.gt, q.dueTick)
	}
	if e.handler == nil {
		panic(fmt.Sprintf("tsnet: endpoint %d has no ordered handler", e.id))
	}
	// Hand off to the protocol controller after the network-exit overhead
	// (Dovh). All handoffs share the same delay, so the controller sees
	// transactions in exactly the logical order.
	e.net.handoffs.Add(e.net.cfg.Params.Dovh, handoff{e: e, q: q})
}
