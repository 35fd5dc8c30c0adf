// Package protocol holds the controller core that every coherence
// protocol in this repository embeds. The paper runs timestamp snooping
// and its directory baselines on the same machine: each node has the
// same processor and L2, and an L2 hit is the same hit whichever
// protocol is in use (Sections 4.2–4.3). Only the miss path differs.
// So the core owns what is shared:
//
//   - each node's L2 and its queue of in-flight hits;
//   - the one L2-hit decision (Begin);
//   - the outstanding-miss count and its MSHR-occupancy samples;
//   - the run's coherence Oracle, which Init creates;
//   - the report of a finished miss to the Oracle, the statistics, the
//     probe and the processor (Complete);
//   - the point-to-point data fabric: TS-Snoop's data network and the
//     directories' three virtual networks.
//
// The protocol packages (tssnoop, directory) keep only their
// transactions, MSHR contents and home state.
package protocol

import (
	"tsnoop/internal/cache"
	"tsnoop/internal/coherence"
	"tsnoop/internal/network"
	"tsnoop/internal/obs"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/timing"
	"tsnoop/internal/topology"
)

// Core is the protocol-independent part of a coherence controller. A
// protocol embeds it by value and calls Init from its constructor.
type Core struct {
	K      *sim.Kernel
	Topo   *topology.Topology
	Params timing.Params
	Run    *stats.Run
	// Probe is the kernel's, read once by Init. When non-nil it records
	// deterministic protocol telemetry; every call site is nil-guarded,
	// so bare runs pay one branch.
	Probe *obs.Probe
	// Fabric carries the protocol's point-to-point messages.
	Fabric *network.Fabric
	// DataBytes is the size of a message carrying one block.
	DataBytes int

	oracle  *coherence.Oracle
	l2      []l2 // one per node
	pending int
}

// l2 is one node's cache and its in-flight hits.
type l2 struct {
	cache *cache.Cache
	hits  hitQueue
}

// Init sets the core up over topo: one L2 of geometry cc per node, a
// fresh Oracle (a violation panics), and a data fabric whose
// orderedVNets keep point-to-point order. The core and its fabric record
// into the kernel's probe. The kernel has few lanes and gives them out
// in declaration order, so a protocol that declares lanes of its own
// (tsnet's links) builds them before Init.
func (c *Core) Init(k *sim.Kernel, topo *topology.Topology, params timing.Params, cc cache.Config, run *stats.Run,
	orderedVNets ...int) {
	*c = Core{K: k, Topo: topo, Params: params, Run: run, Probe: k.Probe(), oracle: coherence.NewOracle()}
	c.DataBytes = timing.DataMsgBytes(cc.BlockBytes)
	k.Lane(params.L2Hit) // every hit completes L2Hit after its access
	c.Fabric = network.New(k, topo, params, &run.Traffic, orderedVNets...)
	c.l2 = make([]l2, topo.Nodes())
	for i := range c.l2 {
		c.l2[i].cache = cache.MustNew(cc)
	}
}

// Cache returns node id's L2.
func (c *Core) Cache(id int) *cache.Cache { return c.l2[id].cache }

// Begin starts op on block b at node id. An L2 hit is a load of any
// valid copy or a store to a Modified one. It completes here: a store
// takes the block's next version, the Oracle observes the version, done
// fires L2Hit later, and Begin returns true. On a miss Begin counts one
// more outstanding miss and returns false; the protocol then owns the
// miss until it reports it to Complete.
func (c *Core) Begin(id int, op coherence.Op, b coherence.Block, done func(coherence.AccessResult)) bool {
	n := &c.l2[id]
	state, version := n.cache.Lookup(b)
	if (op == coherence.Load && state != cache.Invalid) || (op == coherence.Store && state == cache.Modified) {
		if op == coherence.Store {
			version = c.oracle.WriteVersion(b)
			n.cache.SetVersion(b, version)
		}
		c.oracle.Observe(id, b, version)
		n.hits.q.Push(pendingHit{done: done, result: coherence.AccessResult{Hit: true, Latency: c.Params.L2Hit, Version: version}})
		c.K.AfterCall(c.Params.L2Hit, deliverHit, &n.hits, nil, 0)
		if pr := c.Probe; pr != nil {
			pr.Event(obs.EvL2Hit)
		}
		return true
	}
	c.pending++
	if pr := c.Probe; pr != nil {
		pr.MSHROcc(c.pending)
	}
	return false
}

// Phases records the protocol's own lifecycle spans of a finished miss.
// Complete calls it right after the whole-miss span, so the span stream
// keeps one order.
type Phases interface {
	Spans(pr *obs.Probe, node int32)
}

// Complete reports node id's finished miss on block b, issued at
// issuedAt, that observed or created version and was supplied as
// supplier. It samples the miss wait and records the whole-miss span
// (then phases' spans, when phases is non-nil), lets the Oracle observe
// the version, fires done and adds the miss to the statistics. The
// outstanding count drops first, because done may issue the node's next
// access at once. The protocol must read everything it needs out of its
// MSHR before calling Complete.
func (c *Core) Complete(id int, b coherence.Block, supplier stats.MissKind, issuedAt sim.Time, version uint64,
	done func(coherence.AccessResult), phases Phases) {
	c.pending--
	latency := c.K.Now() - issuedAt
	if pr := c.Probe; pr != nil {
		pr.MSHROcc(c.pending)
		pr.MissWait(int64(latency))
		pr.Span(obs.SpanMiss, int32(id), obs.LaneMSHR0, int32(id), 0, int64(issuedAt), int64(latency))
		if phases != nil {
			phases.Spans(pr, int32(id))
		}
	}
	c.oracle.Observe(id, b, version)
	done(coherence.AccessResult{Kind: supplier, Latency: latency, Version: version})
	c.Run.AddMiss(supplier, latency)
}

// Pending reports the number of outstanding misses (coherence.Protocol).
func (c *Core) Pending() int { return c.pending }

// Release hands the node caches back to their pool
// (coherence.Protocol).
func (c *Core) Release() {
	for i := range c.l2 {
		c.l2[i].cache.Release()
	}
}

// Oracle returns the coherence checker in use.
func (c *Core) Oracle() *coherence.Oracle { return c.oracle }

// CacheState reports the cache state of block b at node id (tests and
// the stress checker).
func (c *Core) CacheState(id int, b coherence.Block) cache.State {
	s, _ := c.l2[id].cache.Peek(b)
	return s
}

// SetPerturbation installs a delivery-delay sampler on the data fabric:
// the paper's stability methodology perturbs message responses.
func (c *Core) SetPerturbation(fn func() sim.Duration) { c.Fabric.SetPerturbation(fn) }

// hitQueue buffers a node's in-flight L2-hit completions. Every hit
// shares the one L2Hit latency, so completions deliver in strict FIFO
// order (see sim.FIFO): Begin pushes the completion and schedules
// deliverHit as a typed kernel event, replacing a closure per hit.
type hitQueue struct {
	q sim.FIFO[pendingHit]
}

type pendingHit struct {
	done   func(coherence.AccessResult)
	result coherence.AccessResult
}

// deliverHit is the typed kernel event (sim.EventFn) completing the
// oldest queued hit: a0 is the *hitQueue.
func deliverHit(a0, a1 any, i0 int64) {
	p := a0.(*hitQueue).q.Pop()
	p.done(p.result)
}
