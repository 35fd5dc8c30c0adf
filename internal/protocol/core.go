// Package protocol holds the controller core that every coherence
// protocol in this repository embeds. The paper runs timestamp snooping
// and its directory baselines on the same machine: each node has the
// same processor and L2, and an L2 hit is the same hit whichever
// protocol is in use (Sections 4.2–4.3). Only the miss path differs.
// So the core owns what is shared:
//
//   - each node's L2, and one sim.Batch completing every node's hits;
//   - the one L2-hit decision (Begin);
//   - the outstanding-miss count and its MSHR-occupancy samples;
//   - the run's coherence Oracle, which Init creates;
//   - the run's block Index, which numbers each block at the access
//     that first touches it, for the per-block Tables, and finds an
//     evicted block's number (VictimIndex);
//   - the report of a finished miss to the Oracle, the statistics, the
//     probe and the processor (Complete);
//   - the point-to-point data fabric: TS-Snoop's data network and the
//     directories' three virtual networks. A Core[P] carries protocol
//     messages of type P by value.
//
// The protocol packages (tssnoop, directory) keep only their
// transactions, MSHR contents and home state: one home table per
// protocol, since only a block's home (coherence.HomeOf) touches its
// entry.
package protocol

import (
	"fmt"

	"tsnoop/internal/cache"
	"tsnoop/internal/coherence"
	"tsnoop/internal/network"
	"tsnoop/internal/obs"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/timing"
	"tsnoop/internal/topology"
)

// Core is the protocol-independent part of a coherence controller whose
// fabric carries messages of type P. A protocol embeds it by value and
// calls Init from its constructor.
type Core[P any] struct {
	K      *sim.Kernel
	Topo   *topology.Topology
	Params timing.Params
	Run    *stats.Run
	// Probe is the kernel's, read once by Init. When non-nil it records
	// deterministic protocol telemetry; every call site is nil-guarded,
	// so bare runs pay one branch.
	Probe *obs.Probe
	// Fabric carries the protocol's point-to-point messages.
	Fabric *network.Fabric[P]
	// DataBytes is the size of a message carrying one block.
	DataBytes int
	// Index numbers every block the run's processors touch (Begin).
	Index coherence.Index

	oracle *coherence.Oracle
	caches []*cache.Cache // one per node
	// hits completes every node's L2 hits, L2Hit after each access.
	hits    *sim.Batch[hit]
	pending int
}

// hit is an L2 hit's completion.
type hit struct {
	done   func(coherence.AccessResult)
	result coherence.AccessResult
}

// completeHit fires a hit's completion.
func completeHit(h *hit) { h.done(h.result) }

// Init sets the core up over topo: one L2 of geometry cc per node, a
// fresh Oracle (a violation panics), and a data fabric that hands every
// delivered message to h, whose orderedVNets keep point-to-point order
// and whose messages take the extra delay perturb samples, when it is
// non-nil (the paper's stability methodology perturbs message
// responses). h is the protocol's one delivery handler for all nodes:
// it dispatches on the message's Dst. The core and its fabric record
// into the kernel's probe. The kernel has few lanes and gives them out
// in declaration order, so a protocol that declares lanes of its own
// (tsnet's links) builds them before Init.
func (c *Core[P]) Init(k *sim.Kernel, topo *topology.Topology, params timing.Params, cc cache.Config, run *stats.Run,
	h network.Handler[P], perturb func() sim.Duration, orderedVNets ...int) {
	*c = Core[P]{K: k, Topo: topo, Params: params, Run: run, Probe: k.Probe(), oracle: coherence.NewOracle()}
	c.DataBytes = timing.DataMsgBytes(cc.BlockBytes)
	k.Lane(params.L2Hit) // every hit completes L2Hit after its access
	c.hits = sim.NewBatch(k, completeHit)
	c.Fabric = network.New(k, topo, params, &run.Traffic, h, perturb, orderedVNets...)
	c.caches = make([]*cache.Cache, topo.Nodes())
	for i := range c.caches {
		c.caches[i] = cache.MustNew(cc)
	}
}

// Cache returns node id's L2.
func (c *Core[P]) Cache(id int) *cache.Cache { return c.caches[id] }

// Begin starts op on block b at node id and returns b's Index number
// with the hit decision. An L2 hit is a load of any valid copy or a
// store to a Modified one. It completes here: a store takes the block's
// next version, the Oracle observes the version, done fires L2Hit later,
// and Begin reports true. On a miss Begin counts one more outstanding
// miss and reports false; the protocol then owns the miss until it
// reports it to Complete.
func (c *Core[P]) Begin(id int, op coherence.Op, b coherence.Block, done func(coherence.AccessResult)) (int32, bool) {
	idx := c.Index.Of(b)
	l2 := c.caches[id]
	state, version := l2.Lookup(b)
	if (op == coherence.Load && state != cache.Invalid) || (op == coherence.Store && state == cache.Modified) {
		if op == coherence.Store {
			version = c.oracle.WriteVersion(idx)
			l2.SetVersion(b, version)
		}
		c.oracle.Observe(id, b, version)
		c.hits.Add(c.Params.L2Hit, hit{done: done, result: coherence.AccessResult{Hit: true, Latency: c.Params.L2Hit, Version: version}})
		if pr := c.Probe; pr != nil {
			pr.Event(obs.EvL2Hit)
		}
		return idx, true
	}
	c.pending++
	if pr := c.Probe; pr != nil {
		pr.MSHROcc(c.pending)
	}
	return idx, false
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
func (c *Core[P]) Complete(id int, b coherence.Block, supplier stats.MissKind, issuedAt sim.Time, version uint64,
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
func (c *Core[P]) Pending() int { return c.pending }

// Release hands the node caches back to their pool
// (coherence.Protocol).
func (c *Core[P]) Release() {
	for _, l2 := range c.caches {
		l2.Release()
	}
}

// VictimIndex returns the Index number of block b, which node id is
// evicting. Every cached block was numbered by the access that first
// touched it, so an unnumbered victim panics.
func (c *Core[P]) VictimIndex(id int, b coherence.Block) int32 {
	i, ok := c.Index.Lookup(b)
	if !ok {
		panic(fmt.Sprintf("protocol: node %d evicted unnumbered block %x", id, b))
	}
	return i
}

// Touched reports how many distinct blocks the run has touched.
func (c *Core[P]) Touched() int { return c.Index.Len() }

// Oracle returns the coherence checker in use.
func (c *Core[P]) Oracle() *coherence.Oracle { return c.oracle }

// CacheState reports the cache state of block b at node id (tests and
// the stress checker).
func (c *Core[P]) CacheState(id int, b coherence.Block) cache.State {
	s, _ := c.caches[id].Peek(b)
	return s
}
