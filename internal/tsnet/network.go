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
// The implementation is allocation-free at steady state. The network is
// generic in its payload type P, and every transaction copy travels by
// value: in a hop item, in a switch's buffer and in an endpoint's
// reorder queue. Per-port switch state lives in dense slices indexed by
// local port position, the endpoint reorder queues are hand-rolled
// heaps of inline values, and all hot-path work is batch items rather
// than closures. A copy carries only what routing and ordering read:
// the Verify and probe instrumentation lives in a per-source side table
// (flightRing) that uninstrumented runs never touch.
//
// All of the network's work goes through one sim.Batch, the hop batch,
// so a run of same-instant work costs one kernel dispatch. It carries
// every link transit (injections, contended departures, endpoint token
// echoes, and the fan-out waves), each contended port's service and the
// start of logical time. A switch fans out one wave item per distinct
// link latency, not one per link: a token propagation sends one per
// output latency, a cut-through switch one per latency among a
// transaction's surviving branches. Each wave delivers on its links in
// port or route order, as one event per link would have. sim.Batch runs
// each item exactly where its own event would have run, so arrivals,
// their same-time ties and every ordered processing happen as with one
// event per link.
//
// An endpoint calls its ordered handler at processing time. The
// network-exit overhead Dovh between processing and the controller is
// the receiver's to model (see OrderedHandler), so a receiver that will
// not act on a transaction pays nothing for it.
//
// A token hop does O(1) work: a switch counts its empty input ports and
// propagates exactly when that count reaches zero, only a contended
// switch (the only kind that buffers) scans its buffer for zero slack,
// and an endpoint caches its reorder queue's earliest due tick, so a
// tick with nothing due never touches the heap.
package tsnet

import (
	"fmt"
	"math"
	"math/bits"

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
	// throughout. TS-Snoop also checks that a node its holder mask lets
	// skip a request, or the request's L2 probe, holds nothing, and that
	// a block it fills has no writeback pending. The tsnet and protocol
	// test suites keep it on; experiment runs (system.DefaultConfig)
	// leave it off so production figure runs skip the consensus
	// bookkeeping entirely.
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

// OrderedHandler receives transactions in the global logical order, at
// the instant the endpoint processes each one. The network-exit overhead
// Dovh that separates processing from the controller is the receiver's
// to model: TS-Snoop hands a transaction to its controllers Dovh later,
// and only at nodes that may act on it.
type OrderedHandler[P any] func(src int, seq uint64, payload P, arrived sim.Time)

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
type PeekHandler[P any] func(src int, seq uint64, payload P, slackTicks int) (consumed bool)

// txn is an in-flight copy of an address transaction, held by value.
// Broadcast fan-out duplicates the copy per branch; each copy carries
// its own slack. mask is the destination set (all ones for a
// broadcast): switches prune branches whose reach does not intersect
// it, which never changes a surviving copy's path, so ordering times
// remain globally consistent between multicasts and broadcasts. src and
// slack are int32, last, to keep the hop items that carry copies small.
// What only Verify and the probe read is in the source's flightRing.
type txn[P any] struct {
	seq     uint64
	mask    uint64
	payload P
	src     int32
	slack   int32
}

// flight is the side-table entry of one injected transaction: the
// fields Verify and the probe read at each endpoint arrival, which no
// copy needs to carry.
type flight struct {
	sent sim.Time // injection time (the probe's addr_flight span)
	ot   uint64   // Verify: formula ordering time GT_src + Dmax + S
	// due is the ordering time the first arriving copy computed, or
	// MaxUint64 before it: under Verify every endpoint must agree.
	due uint64
	// left counts the destination endpoints still to arrive; the
	// entry is free at 0.
	left int32
}

// flightRing holds one source's in-flight side-table entries, indexed
// by sequence number modulo its power-of-two length. Entries at or
// after base are live or free; every entry before base is free, so
// the ring holds every live entry while nextSeq-base fits it. It grows
// only when a source has more transactions in flight than it holds.
type flightRing struct {
	slots []flight
	base  uint64 // the oldest live sequence number, or nextSeq
}

func (r *flightRing) at(seq uint64) *flight { return &r.slots[seq&uint64(len(r.slots)-1)] }

// add records transaction seq, the source's next.
func (r *flightRing) add(seq uint64, f flight) {
	if seq-r.base >= uint64(len(r.slots)) {
		old := r.slots
		r.slots = make([]flight, 2*len(old))
		for s := r.base; s < seq; s++ {
			*r.at(s) = old[s&uint64(len(old)-1)]
		}
	}
	*r.at(seq) = f
}

// arrived counts one copy of seq in and frees its entry after the
// last; next is the source's next sequence number.
func (r *flightRing) arrived(seq, next uint64) {
	f := r.at(seq)
	f.left--
	if f.left > 0 {
		return
	}
	for r.base < next && r.at(r.base).left == 0 {
		r.base++
	}
}

// flightSlots is each source's initial side-table length: a blocking
// node rarely has more than a miss and a writeback in flight.
const flightSlots = 8

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

// Network is a timestamp-snooping address network over a topology,
// carrying payloads of type P.
type Network[P any] struct {
	k       *sim.Kernel
	topo    *topology.Topology
	cfg     Config
	traffic *stats.Traffic
	run     *stats.Run // ordering-delay and occupancy stats
	// probe is the kernel's, read once by New. When non-nil it records
	// deterministic telemetry: per-link transit counts, buffer and
	// reorder-queue occupancy, and token stall episodes. Every call site
	// is nil-guarded, so uninstrumented runs pay one branch per site.
	probe *obs.Probe
	// flights is the per-source side table, made only under Verify or
	// with a probe (nil otherwise).
	flights []flightRing

	switches  []swState[P]
	endpoints []epState[P]
	nextSeq   []uint64
	links     []linkMeta

	// hops carries every hop item.
	hops *sim.Batch[hop[P]]

	started bool

	// TestHook, when non-nil, observes every ordered processing event:
	// (endpoint, source, seq, endpoint GT at processing, debug OT).
	TestHook func(ep, src int, seq uint64, gt, ot uint64)
}

// New builds an address network whose payloads are untyped; see NewOf.
func New(k *sim.Kernel, topo *topology.Topology, cfg Config, traffic *stats.Traffic, run *stats.Run) *Network[any] {
	return NewOf[any](k, topo, cfg, traffic, run)
}

// NewOf builds the address network for payloads of type P, recording
// into the kernel's probe.
func NewOf[P any](k *sim.Kernel, topo *topology.Topology, cfg Config, traffic *stats.Traffic, run *stats.Run) *Network[P] {
	if cfg.InitialSlack < 0 {
		panic("tsnet: negative initial slack")
	}
	if cfg.TokensPerPort < 1 {
		panic("tsnet: TokensPerPort must be >= 1")
	}
	n := &Network[P]{
		k:       k,
		topo:    topo,
		cfg:     cfg,
		traffic: traffic,
		run:     run,
		probe:   k.Probe(),
		nextSeq: make([]uint64, topo.Nodes()),
	}
	n.hops = sim.NewBatch(k, n.runHop)
	if cfg.Verify || n.probe != nil {
		n.flights = make([]flightRing, topo.Nodes())
		slots := make([]flight, flightSlots*topo.Nodes())
		for i := range n.flights {
			n.flights[i].slots = slots[i*flightSlots : (i+1)*flightSlots : (i+1)*flightSlots]
		}
	}
	n.links = make([]linkMeta, len(topo.Links()))
	for i, l := range topo.Links() {
		n.links[i] = linkMeta{
			lat:      sim.Duration(l.Cost) * cfg.Params.Dswitch,
			toSwitch: l.To.Kind == topology.KindSwitch,
			toIndex:  int32(l.To.Index),
		}
		// Every token and transaction hop takes its link's latency: the
		// kernel's fixed-delay lanes.
		k.Lane(n.links[i].lat)
	}
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
	g := newGrouper(topo, n.links)
	n.switches = make([]swState[P], topo.NumSwitches())
	for i := range n.switches {
		n.switches[i].init(n, i, g)
	}
	n.endpoints = make([]epState[P], topo.Nodes())
	for i := range n.endpoints {
		n.endpoints[i] = epState[P]{net: n, id: i, queue: newReorderQueue[P]()}
	}
	return n
}

// Register installs the ordered handler (required) and the optional peek
// handler for endpoint ep.
func (n *Network[P]) Register(ep int, ordered OrderedHandler[P], peek PeekHandler[P]) {
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
func (n *Network[P]) Start() {
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
	// Kick the system at the current time (see start).
	n.hops.Add(0, hop[P]{kind: hopStart})
}

// start kicks the system at start time: endpoints tick on their initial
// credits and switches attempt their first propagation.
func (n *Network[P]) start() {
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
func (n *Network[P]) GT(ep int) uint64 { return n.endpoints[ep].gt }

// QueueLen returns the current reorder-queue depth at endpoint ep.
func (n *Network[P]) QueueLen(ep int) int { return n.endpoints[ep].queue.len() }

// Inject broadcasts an address transaction from src. It returns the
// per-source sequence number that, with src, names the transaction in the
// global order. The traffic accountant is charged for the whole broadcast
// tree at injection.
func (n *Network[P]) Inject(src int, payload P) uint64 {
	return n.inject(src, ^uint64(0), payload)
}

// InjectTo multicasts an address transaction from src to the endpoint set
// mask (a bitmask; bit i = endpoint i; machines up to 64 nodes). The
// transaction occupies the same slot in the global logical order a
// broadcast would — only the delivery set shrinks — so multicasts and
// broadcasts interleave in one total order (the property multicast
// snooping depends on). Traffic is charged for the pruned tree only.
func (n *Network[P]) InjectTo(src int, mask uint64, payload P) uint64 {
	if n.topo.Nodes() > 64 {
		panic("tsnet: multicast limited to 64 endpoints")
	}
	if mask == 0 {
		panic("tsnet: empty multicast mask")
	}
	return n.inject(src, mask, payload)
}

func (n *Network[P]) inject(src int, mask uint64, payload P) uint64 {
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
	t := txn[P]{
		src:     int32(src),
		seq:     seq,
		slack:   int32(n.cfg.InitialSlack),
		mask:    mask,
		payload: payload,
	}
	if n.flights != nil {
		// OT = GT_source + Dmax + S, in endpoint tick units. (Standing
		// tokens on a zero-cost injection link can shift the realized
		// ordering time by up to k ticks; arrival checks allow exactly
		// that.)
		left := n.topo.Nodes()
		if mask != ^uint64(0) {
			left = bits.OnesCount64(mask & (^uint64(0) >> (64 - left)))
		}
		n.flights[src].add(seq, flight{
			sent: n.k.Now(),
			ot:   n.endpoints[src].gt + uint64(tree.MaxDepth*k) + uint64(n.cfg.InitialSlack),
			due:  math.MaxUint64,
			left: int32(left),
		})
	}
	n.sendOnLink(n.topo.EndpointOut(src), &t)
	return seq
}

// hopKind says what a hop item does.
type hopKind uint8

const (
	hopTxn       hopKind = iota // a transaction copy over link id
	hopToken                    // an endpoint's token over link id
	hopTokenWave                // switch id's tokens on output group g
	hopTxnWave                  // switch id's copies of t on route group g
	hopServe                    // switch id serves its output link g
	hopStart                    // the network starts logical time
)

// hop is one item of the hop batch. For the waves, id is the switch and
// g the index of its latency group; for a port service, g is the output
// link. The item holds its copy t by value and runs in place.
type hop[P any] struct {
	kind hopKind
	id   int32
	g    int32
	t    txn[P]
}

// runHop runs a hop item.
func (n *Network[P]) runHop(h *hop[P]) {
	switch h.kind {
	case hopTxn:
		n.arriveTxn(topology.LinkID(h.id), &h.t)
	case hopToken:
		n.arriveToken(topology.LinkID(h.id))
	case hopTokenWave:
		n.switches[h.id].deliverTokens(h.g)
	case hopTxnWave:
		n.switches[h.id].deliverTxns(h.g, &h.t)
	case hopServe:
		n.switches[h.id].servePort(topology.LinkID(h.g))
	case hopStart:
		n.start()
	}
}

// arriveTxn completes a transaction copy's transit of link id. The
// receiving switch may change t's slack.
func (n *Network[P]) arriveTxn(id topology.LinkID, t *txn[P]) {
	if p := n.probe; p != nil {
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
func (n *Network[P]) sendOnLink(id topology.LinkID, t *txn[P]) {
	n.hops.Add(n.links[id].lat, hop[P]{kind: hopTxn, id: int32(id), t: *t})
}

// arriveToken completes a token's transit of link id.
func (n *Network[P]) arriveToken(id topology.LinkID) {
	if p := n.probe; p != nil {
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
func (n *Network[P]) sendToken(id topology.LinkID) {
	n.hops.Add(n.links[id].lat, hop[P]{kind: hopToken, id: int32(id)})
}

// epState is an endpoint network interface: a one-input, one-output node
// that maintains its GT the same way switches do and sorts arriving
// transactions back into the global order.
type epState[P any] struct {
	net     *Network[P]
	id      int
	gt      uint64
	credits int
	queue   reorderQueue[P]
	handler OrderedHandler[P]
	peek    PeekHandler[P]
}

func (e *epState[P]) arriveToken() {
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
func (e *epState[P]) tick() {
	e.gt++
	for e.queue.due < e.gt {
		e.process(&e.queue.h[0])
		e.queue.pop()
	}
	e.net.run.ReorderOccupancy.Set(e.queue.len())
	if p := e.net.probe; p != nil {
		p.ReorderOcc(e.queue.len())
	}
	e.net.sendToken(e.net.topo.EndpointOut(e.id))
}

func (e *epState[P]) arriveTxn(t *txn[P]) {
	if t.slack < 0 {
		panic(fmt.Sprintf("tsnet: negative slack %d at endpoint %d", t.slack, e.id))
	}
	due := e.gt + uint64(t.slack)
	var sent sim.Time
	if e.net.flights != nil {
		sent = e.checkFlight(t, due)
	}
	if e.peek != nil {
		if e.peek(int(t.src), t.seq, t.payload, int(t.slack)) {
			e.net.run.EarlyProcessed++
			return
		}
	}
	// Transactions are always enqueued and drained at tick boundaries,
	// even when already due: processing strictly in (OT, source, sequence)
	// key order at every endpoint guarantees the orders agree globally,
	// which immediate on-arrival processing could violate for same-OT
	// transactions arriving in different physical orders.
	e.queue.push(queued[P]{
		dueTick: due,
		src:     t.src,
		seq:     t.seq,
		payload: t.payload,
		arrived: e.net.k.Now(),
	})
	e.net.run.ReorderOccupancy.Set(e.queue.len())
	if p := e.net.probe; p != nil {
		p.ReorderOcc(e.queue.len())
		// One addr_flight span per endpoint delivery: this copy's
		// injection-to-arrival transit, observed at the arriving node.
		p.Span(obs.SpanAddrFlight, int32(e.id), obs.NetLane(obs.SpanAddrFlight), t.src, t.seq,
			int64(sent), int64(e.net.k.Now()-sent))
	}
}

// checkFlight reads copy t's side-table entry as it arrives with
// ordering time due, runs Verify's checks on it, counts the copy in
// and returns the injection time.
func (e *epState[P]) checkFlight(t *txn[P], due uint64) sim.Time {
	r := &e.net.flights[t.src]
	f := r.at(t.seq)
	sent := f.sent
	if e.net.cfg.Verify {
		// Every endpoint must reconstruct the identical ordering time:
		// this is the property that makes the reorder queues agree on a
		// single global order.
		if f.due == math.MaxUint64 {
			f.due = due
		} else if f.due != due {
			panic(fmt.Sprintf("tsnet: endpoint %d txn %d/%d ordering time %d disagrees with consensus %d (slack %d, gt %d)",
				e.id, t.src, t.seq, due, f.due, t.slack, e.gt))
		}
		// And it must match the paper's formula, shifted no later than the
		// standing-token phase of a zero-cost injection link (at most
		// TokensPerPort ticks) and never earlier.
		if due < f.ot || due > f.ot+uint64(e.net.cfg.TokensPerPort) {
			panic(fmt.Sprintf("tsnet: endpoint %d txn %d/%d due tick %d outside [OT, OT+%d], OT %d",
				e.id, t.src, t.seq, due, e.net.cfg.TokensPerPort, f.ot))
		}
	}
	r.arrived(t.seq, e.net.nextSeq[t.src])
	return sent
}

func (e *epState[P]) process(q *queued[P]) {
	e.net.run.OrderingDelay.Observe(e.net.k.Now() - q.arrived)
	if p := e.net.probe; p != nil {
		// reorder_dwell: physical arrival to in-order processing at
		// this endpoint's reorder queue.
		p.Span(obs.SpanReorderDwell, int32(e.id), obs.NetLane(obs.SpanReorderDwell), q.src, q.seq,
			int64(q.arrived), int64(e.net.k.Now()-q.arrived))
		p.Event(obs.EvOrderedHandoff)
	}
	if e.net.TestHook != nil {
		e.net.TestHook(e.id, int(q.src), q.seq, e.gt, q.dueTick)
	}
	if e.handler == nil {
		panic(fmt.Sprintf("tsnet: endpoint %d has no ordered handler", e.id))
	}
	e.handler(int(q.src), q.seq, q.payload, q.arrived)
}
