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
package network

import (
	"fmt"

	"tsnoop/internal/obs"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/timing"
	"tsnoop/internal/topology"
)

// Message is a delivered network message.
type Message struct {
	VNet     int
	Src, Dst int
	Class    stats.Class
	Bytes    int
	Payload  any
	SentAt   sim.Time
	ArriveAt sim.Time
}

// Handler consumes messages delivered to one endpoint.
type Handler func(m Message)

// Fabric is an unloaded-latency point-to-point network.
type Fabric struct {
	k       *sim.Kernel
	topo    *topology.Topology
	params  timing.Params
	traffic *stats.Traffic

	// perturb, when non-nil, returns an extra delivery delay; the paper's
	// stability methodology injects small random delays into message
	// responses and reports the minimum runtime over several seeds.
	perturb func() sim.Duration

	handlers []Handler
	ordered  map[int]bool
	lastAt   map[orderKey]sim.Time

	// msgPool recycles in-flight message envelopes: a delivery returns
	// its envelope to the pool before invoking the handler, so a steady
	// stream of sends allocates nothing.
	msgPool sim.Pool[Message]

	// Counters for tests and reports.
	sent int64

	// probe is the kernel's: when non-nil, it counts message-delivery
	// dispatches (nil-guarded: bare runs pay one branch per delivery).
	probe *obs.Probe
}

type orderKey struct {
	vnet, src, dst int
}

// New creates a fabric over topo using the given kernel, timing parameters
// and traffic accountant, recording into the kernel's probe.
// orderedVNets lists vnet numbers that must preserve point-to-point
// ordering.
func New(k *sim.Kernel, topo *topology.Topology, params timing.Params, traffic *stats.Traffic, orderedVNets ...int) *Fabric {
	f := &Fabric{
		k:        k,
		topo:     topo,
		params:   params,
		traffic:  traffic,
		handlers: make([]Handler, topo.Nodes()),
		ordered:  make(map[int]bool),
		lastAt:   make(map[orderKey]sim.Time),
		probe:    k.Probe(),
	}
	for _, v := range orderedVNets {
		f.ordered[v] = true
	}
	return f
}

// SetPerturbation installs a delivery-delay sampler (nil disables).
func (f *Fabric) SetPerturbation(fn func() sim.Duration) { f.perturb = fn }

// Register installs the message handler for endpoint dst. Each endpoint
// must register exactly once before any Send to it arrives.
func (f *Fabric) Register(dst int, h Handler) {
	if f.handlers[dst] != nil {
		panic(fmt.Sprintf("network: endpoint %d registered twice", dst))
	}
	f.handlers[dst] = h
}

// Topology returns the fabric's topology.
func (f *Fabric) Topology() *topology.Topology { return f.topo }

// Sent returns the number of messages sent so far.
func (f *Fabric) Sent() int64 { return f.sent }

// Send transmits a message. Latency is the unloaded Dovh + hops*Dswitch
// (plus perturbation); a message to self costs Dovh (network-interface
// loopback) and no link traffic.
func (f *Fabric) Send(vnet, src, dst int, class stats.Class, bytes int, payload any) {
	if f.handlers[dst] == nil {
		panic(fmt.Sprintf("network: send to unregistered endpoint %d", dst))
	}
	hops := f.topo.Hops(src, dst)
	lat := f.params.Dnet(hops)
	if f.perturb != nil {
		lat += f.perturb()
	}
	arrive := f.k.Now() + lat
	if len(f.ordered) > 0 && f.ordered[vnet] {
		key := orderKey{vnet, src, dst}
		if prev := f.lastAt[key]; arrive < prev {
			arrive = prev
		}
		f.lastAt[key] = arrive
	}
	if hops > 0 {
		f.traffic.Add(class, hops, bytes)
	} else {
		// Local messages still count once for message statistics but
		// occupy zero links.
		f.traffic.Add(class, 0, bytes)
	}
	f.sent++
	pm := f.msgPool.Get()
	*pm = Message{
		VNet: vnet, Src: src, Dst: dst,
		Class: class, Bytes: bytes, Payload: payload,
		SentAt: f.k.Now(), ArriveAt: arrive,
	}
	f.k.AtCall(arrive, deliverMsg, f, pm, 0)
}

// deliverMsg is the typed kernel event completing a message transit: a0
// is the Fabric, a1 the pooled envelope. The envelope is copied out and
// recycled before the handler runs, so handlers may re-enter Send.
func deliverMsg(a0, a1 any, i0 int64) {
	f := a0.(*Fabric)
	pm := a1.(*Message)
	if p := f.probe; p != nil {
		p.Event(obs.EvDataMsg)
		// data_flight: the message's unloaded transit, observed at the
		// destination.
		p.Span(obs.SpanDataFlight, int32(pm.Dst), obs.NetLane(obs.SpanDataFlight),
			int32(pm.Src), 0, int64(pm.SentAt), int64(pm.ArriveAt-pm.SentAt))
	}
	m := *pm
	f.msgPool.Put(pm)
	f.handlers[m.Dst](m)
}

// UnloadedLatency reports the fabric's latency between two endpoints
// without sending anything; used by the Table 2 analytic checks.
func (f *Fabric) UnloadedLatency(src, dst int) sim.Duration {
	return f.params.Dnet(f.topo.Hops(src, dst))
}
