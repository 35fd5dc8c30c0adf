// Package network implements the unloaded point-to-point message fabric
// shared by all protocols: the data virtual network of timestamp snooping
// and the three virtual networks of the directory protocols.
//
// The paper models unloaded network latencies only ("we do not model
// network contention", Section 4.3): a message from src to dst arrives
// after Dovh + hops*Dswitch, and the traffic accountant charges its size
// times the number of links traversed. Virtual networks share the physical
// links, so traffic sums across vnets.
//
// A virtual network may be declared point-to-point ordered (DirOpt's
// forwarded-request network); deliveries on an ordered vnet never overtake
// earlier sends between the same endpoints, even under perturbation.
//
// A Fabric[P] carries payloads of one type P by value: every message in
// flight is an item of one sim.Batch, delivered at its arrival time in
// exactly the order one kernel event per message would give, so a
// steady stream of sends allocates nothing and needs no free list. One
// handler consumes every delivery and dispatches on Message.Dst: the
// protocol that owns the fabric owns every endpoint's controller.
package network

import (
	"math/bits"

	"tsnoop/internal/obs"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/timing"
	"tsnoop/internal/topology"
)

// Message is a delivered network message. The fabric carries its
// payload of type P by value; it arrives at the current time.
type Message[P any] struct {
	Src, Dst int
	SentAt   sim.Time
	Payload  P
}

// Handler consumes every message the fabric delivers, whatever its
// destination endpoint (Message.Dst).
type Handler[P any] func(m Message[P])

// Fabric is an unloaded-latency point-to-point network carrying
// payloads of type P.
type Fabric[P any] struct {
	k       *sim.Kernel
	topo    *topology.Topology
	params  timing.Params
	traffic *stats.Traffic

	// perturb, when non-nil, returns an extra delivery delay; the paper's
	// stability methodology injects small random delays into message
	// responses and reports the minimum runtime over several seeds.
	perturb func() sim.Duration

	handler Handler[P]
	// ordered has bit v set when vnet v keeps point-to-point order.
	// lastAt holds each ordered stream's last arrival: one nodes×nodes
	// block per ordered vnet, in vnet order, indexed [src][dst].
	ordered uint64
	lastAt  []sim.Time

	// deliveries holds every message in flight, by value: one item per
	// message, delivered at its arrival time.
	deliveries *sim.Batch[Message[P]]

	// probe is the kernel's: when non-nil, it counts message deliveries
	// (nil-guarded: bare runs pay one branch per delivery).
	probe *obs.Probe
}

// New creates a fabric over topo using the given kernel, timing parameters
// and traffic accountant, recording into the kernel's probe. h consumes
// every delivered message, for every endpoint. perturb, when non-nil,
// samples an extra delay for every message. orderedVNets lists vnet
// numbers (below 64) that must preserve point-to-point ordering.
func New[P any](k *sim.Kernel, topo *topology.Topology, params timing.Params, traffic *stats.Traffic,
	h Handler[P], perturb func() sim.Duration, orderedVNets ...int) *Fabric[P] {
	f := &Fabric[P]{
		k:       k,
		topo:    topo,
		params:  params,
		traffic: traffic,
		perturb: perturb,
		handler: h,
		probe:   k.Probe(),
	}
	f.deliveries = sim.NewBatch(k, f.deliver)
	for _, v := range orderedVNets {
		f.ordered |= 1 << uint(v)
	}
	if n := bits.OnesCount64(f.ordered); n > 0 {
		f.lastAt = make([]sim.Time, n*topo.Nodes()*topo.Nodes())
	}
	return f
}

// Send transmits a message. Latency is the unloaded Dovh + hops*Dswitch
// (plus perturbation); a message to self costs Dovh (network-interface
// loopback) and no link traffic.
func (f *Fabric[P]) Send(vnet, src, dst int, class stats.Class, bytes int, payload P) {
	hops := f.topo.Hops(src, dst)
	lat := f.params.Dnet(hops)
	if f.perturb != nil {
		lat += f.perturb()
	}
	now := f.k.Now()
	arrive := now + lat
	if bit := uint64(1) << uint(vnet); f.ordered&bit != 0 {
		n := f.topo.Nodes()
		last := &f.lastAt[(bits.OnesCount64(f.ordered&(bit-1))*n+src)*n+dst]
		arrive = max(arrive, *last)
		*last = arrive
	}
	// A local message still counts once for message statistics but
	// occupies zero links.
	f.traffic.Add(class, hops, bytes)
	f.deliveries.Add(arrive-now, Message[P]{Src: src, Dst: dst, SentAt: now, Payload: payload})
}

// deliver completes a message transit, handing the message to the
// handler.
func (f *Fabric[P]) deliver(m *Message[P]) {
	if p := f.probe; p != nil {
		p.Event(obs.EvDataMsg)
		// data_flight: the message's unloaded transit, observed at the
		// destination.
		p.Span(obs.SpanDataFlight, int32(m.Dst), obs.NetLane(obs.SpanDataFlight),
			int32(m.Src), 0, int64(m.SentAt), int64(f.k.Now()-m.SentAt))
	}
	f.handler(*m)
}

// UnloadedLatency reports the fabric's latency between two endpoints
// without sending anything; used by the Table 2 analytic checks.
func (f *Fabric[P]) UnloadedLatency(src, dst int) sim.Duration {
	return f.params.Dnet(f.topo.Hops(src, dst))
}
